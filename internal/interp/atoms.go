// Package interp provides ground-atom interning and three-valued
// interpretations represented as bitsets. All ground-level evaluation in
// the engine runs on interned atom ids rather than on AST values.
//
// Following the paper, an interpretation I is a consistent set of ground
// literals; a ground atom A has value True if A ∈ I, False if ¬A ∈ I and
// Undef otherwise (the paper's Ī of undefined elements).
package interp

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/ast"
	"repro/internal/term"
)

// AtomID identifies an interned ground atom.
type AtomID int32

// Lit is an interned ground literal: atom id with a sign bit in the lowest
// position (even = positive, odd = negative).
type Lit int32

// MkLit builds a literal from an atom id and a negation flag.
func MkLit(a AtomID, neg bool) Lit {
	l := Lit(a) << 1
	if neg {
		l |= 1
	}
	return l
}

// Atom returns the literal's atom id.
func (l Lit) Atom() AtomID { return AtomID(l >> 1) }

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l&1 == 1 }

// Complement returns the complementary literal.
func (l Lit) Complement() Lit { return l ^ 1 }

// Table interns ground atoms. Atoms are keyed by their predicate symbol id
// plus the packed interned ids of their arguments (internal/term), so
// interning an already-seen atom costs one per-argument id lookup and one
// map probe over a short binary key instead of re-serialising the atom to
// a string. The zero value is not usable; call NewTable.
//
// Like term.Table, an atom table is safe for concurrent use: Intern and
// InternIDs take the write lock (so concurrent writers serialise on the
// mutex, including the shared key scratch it guards), and
// Lookup/LookupIDs/Atom/Len/OfPred/Preds take the read lock. The engine
// relies on this: snapshot readers — queries, and the cone and goal-slice
// sub-tables that answer through their parent — read the table a version
// shares with its successors while the single writer interns an update's
// atoms (delta grounding).
type Table struct {
	mu    sync.RWMutex
	tab   *term.Table
	byKey map[string]AtomID
	atoms []ast.Atom
	preds map[ast.PredKey][]AtomID
	buf   []byte // scratch for Intern/InternIDs keys; lookups must not touch it

	// parent and ids make a sub-table (see Sub): atom i is parent's atom
	// ids[i]. A sub-table keeps no keys or atoms of its own, only preds.
	parent *Table
	ids    []AtomID
}

// NewTable returns an empty atom table with its own term table.
func NewTable() *Table { return NewTableWith(term.NewTable()) }

// NewTableWith returns an empty atom table interning argument terms into
// tab, so a caller can share one term table between its atom table and a
// storage.Store.
func NewTableWith(tab *term.Table) *Table {
	return &Table{tab: tab, byKey: make(map[string]AtomID), preds: make(map[ast.PredKey][]AtomID)}
}

// Sub returns a read-only table over some of t's atoms, renumbered densely:
// atom i of the result is t's atom ids[i]. ids must be strictly ascending
// and t must not itself be a sub-table. The result shares t's term table and
// resolves lookups through t, so it stores nothing per atom beyond ids and
// its predicate lists — interpretations and views over it are sized by
// len(ids), not by t. Interning into a sub-table panics.
func (t *Table) Sub(ids []AtomID) *Table {
	s := &Table{tab: t.tab, parent: t, ids: ids, preds: make(map[ast.PredKey][]AtomID)}
	t.mu.RLock()
	for i, id := range ids {
		k := t.atoms[id].Key()
		s.preds[k] = append(s.preds[k], AtomID(i))
	}
	t.mu.RUnlock()
	return s
}

// local maps a parent atom id to the sub-table's id for it.
func (t *Table) local(id AtomID, ok bool) (AtomID, bool) {
	if !ok {
		return 0, false
	}
	i, found := slices.BinarySearch(t.ids, id)
	return AtomID(i), found
}

// TermTable returns the term table the atom table interns arguments into.
func (t *Table) TermTable() *term.Table { return t.tab }

// appendKey packs the atom's key: the interned predicate-symbol id followed
// by one id per argument. Distinct arities yield distinct key lengths, so
// p/1 and p/2 atoms cannot collide.
func (t *Table) appendKey(b []byte, pred term.ID, args []term.ID) []byte {
	b = term.AppendID(b, pred)
	for _, id := range args {
		b = term.AppendID(b, id)
	}
	return b
}

// Intern returns the id for a ground atom, creating it if needed.
func (t *Table) Intern(a ast.Atom) AtomID {
	t.mustOwn()
	var ids [8]term.ID
	args := ids[:0]
	for _, arg := range a.Args {
		args = append(args, t.tab.Intern(arg))
	}
	pred := t.tab.InternSym(a.Pred)
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.probe(pred, args); ok {
		return id
	}
	return t.add(a)
}

// InternIDs returns the id for the ground atom pred(args...) given its
// already-interned argument ids, creating it if needed. The atom itself is
// decoded from the term table only when it is new, so re-interning a known
// atom builds no ast.Atom at all.
func (t *Table) InternIDs(pred string, args []term.ID) AtomID {
	t.mustOwn()
	sym := t.tab.InternSym(pred)
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.probe(sym, args); ok {
		return id
	}
	a := ast.Atom{Pred: pred}
	if len(args) > 0 {
		a.Args = t.tab.AppendTerms(make([]ast.Term, 0, len(args)), args)
	}
	return t.add(a)
}

func (t *Table) mustOwn() {
	if t.parent != nil {
		panic("interp: intern into a sub-table")
	}
}

// probe packs the atom's key into the table's scratch and looks it up.
// Callers hold the write lock.
func (t *Table) probe(pred term.ID, args []term.ID) (AtomID, bool) {
	t.buf = t.appendKey(t.buf[:0], pred, args)
	id, ok := t.byKey[string(t.buf)]
	return id, ok
}

// add records a new atom under the key the preceding probe left in the
// scratch. Callers hold the write lock.
func (t *Table) add(a ast.Atom) AtomID {
	id := AtomID(len(t.atoms))
	t.byKey[string(t.buf)] = id
	t.atoms = append(t.atoms, a)
	pk := a.Key()
	t.preds[pk] = append(t.preds[pk], id)
	return id
}

// Lookup returns the id of a ground atom and whether it is interned. It
// never interns: an atom whose predicate symbol or arguments are absent
// from the term table cannot have been interned. Lookup never touches the
// table's shared scratch buffer, so concurrent Lookups on a table that is
// no longer being interned into are safe.
func (t *Table) Lookup(a ast.Atom) (AtomID, bool) {
	if t.parent != nil {
		return t.local(t.parent.Lookup(a))
	}
	pred, ok := t.tab.LookupSym(a.Pred)
	if !ok {
		return 0, false
	}
	var ids [8]term.ID
	args := ids[:0]
	for _, arg := range a.Args {
		id, ok := t.tab.Lookup(arg)
		if !ok {
			return 0, false
		}
		args = append(args, id)
	}
	var kb [64]byte
	key := t.appendKey(kb[:0], pred, args)
	t.mu.RLock()
	id, ok := t.byKey[string(key)]
	t.mu.RUnlock()
	return id, ok
}

// LookupIDs returns the id of the ground atom with the given predicate
// symbol id and already-interned argument ids, without interning. Like
// Lookup it takes only the read lock and is safe against a concurrent
// writer.
func (t *Table) LookupIDs(pred term.ID, args []term.ID) (AtomID, bool) {
	if t.parent != nil {
		return t.local(t.parent.LookupIDs(pred, args))
	}
	var kb [64]byte
	key := t.appendKey(kb[:0], pred, args)
	t.mu.RLock()
	id, ok := t.byKey[string(key)]
	t.mu.RUnlock()
	return id, ok
}

// Atom returns the atom for an id.
func (t *Table) Atom(id AtomID) ast.Atom {
	if t.parent != nil {
		return t.parent.Atom(t.ids[id])
	}
	t.mu.RLock()
	a := t.atoms[id]
	t.mu.RUnlock()
	return a
}

// Len returns the number of interned atoms.
func (t *Table) Len() int {
	if t.parent != nil {
		return len(t.ids)
	}
	t.mu.RLock()
	n := len(t.atoms)
	t.mu.RUnlock()
	return n
}

// OfPred returns the ids of all interned atoms of a predicate, in
// interning order. The returned slice is shared; do not modify. A
// concurrent writer may append further atoms of the predicate, but the
// prefix the caller received is immutable.
func (t *Table) OfPred(k ast.PredKey) []AtomID {
	t.mu.RLock()
	ids := t.preds[k]
	t.mu.RUnlock()
	return ids
}

// Preds returns all predicate keys with at least one interned atom,
// sorted by name then arity.
func (t *Table) Preds() []ast.PredKey {
	t.mu.RLock()
	defer t.mu.RUnlock()
	keys := make([]ast.PredKey, 0, len(t.preds))
	for k := range t.preds {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Name != keys[j].Name {
			return keys[i].Name < keys[j].Name
		}
		return keys[i].Arity < keys[j].Arity
	})
	return keys
}

// LitString renders an interned literal using the table.
func (t *Table) LitString(l Lit) string {
	s := t.Atom(l.Atom()).String()
	if l.Neg() {
		return "-" + s
	}
	return s
}
