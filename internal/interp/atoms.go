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
// plus the interned ids of their arguments (internal/term), so interning an
// already-seen atom costs one hash over a few ids and one index probe
// instead of re-serialising the atom to a string. The zero value is not
// usable; call NewTable.
//
// Like term.Table, an atom table is safe for concurrent use: Intern and
// InternAtoms take the write lock (so concurrent writers serialise on the
// mutex), and Lookup/LookupIDs/Atom/Key/Len/OfPred/Preds take the read lock.
// The engine relies on this: snapshot readers — queries, and the cone and
// goal-slice sub-tables that answer through their parent — read the table a
// version shares with its successors while the single writer interns an
// update's atoms (delta grounding).
type Table struct {
	mu  sync.RWMutex
	tab *term.Table
	// Atom i's key — predicate symbol id, then argument ids — is
	// keys[keyOff[i]:keyOff[i+1]], and idx finds atoms by the key's hash
	// (term.HashIDs), resolving collisions by comparing keys, so a new
	// atom allocates no key of its own. No ast.Atom is kept: Atom decodes
	// one from its key through the term table, so nothing the table holds
	// per atom is a pointer the garbage collector has to trace.
	idx    term.Index
	keys   []term.ID
	keyOff []int32
	preds  map[ast.PredKey]*[]AtomID
	// lastPred and lastList cache the predicate list the last new atom
	// went to: atoms are interned in runs of one predicate.
	lastPred ast.PredKey
	lastList *[]AtomID

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
	return &Table{tab: tab, keyOff: []int32{0}, preds: make(map[ast.PredKey]*[]AtomID)}
}

// Sub returns a read-only table over some of t's atoms, renumbered densely:
// atom i of the result is t's atom ids[i]. ids must be strictly ascending
// and t must not itself be a sub-table. The result shares t's term table and
// resolves lookups through t, so it stores nothing per atom beyond ids and
// its predicate lists — interpretations and views over it are sized by
// len(ids), not by t. Interning into a sub-table panics.
func (t *Table) Sub(ids []AtomID) *Table {
	s := &Table{tab: t.tab, parent: t, ids: ids, preds: make(map[ast.PredKey]*[]AtomID)}
	sym, k := term.None, ast.PredKey{}
	t.mu.RLock()
	for i, id := range ids {
		// Atoms come in runs of one predicate: its name is looked up once
		// per run, by the key's symbol id and arity.
		key := t.keys[t.keyOff[id]:t.keyOff[id+1]]
		if key[0] != sym || len(key)-1 != k.Arity {
			sym, k = key[0], ast.PredKey{Name: t.symName(key[0]), Arity: len(key) - 1}
		}
		s.addPred(k, AtomID(i))
	}
	t.mu.RUnlock()
	return s
}

// symName returns the name of a predicate symbol id.
func (t *Table) symName(sym term.ID) string { return string(t.tab.Term(sym).(ast.Sym)) }

// addPred appends id to its predicate's list.
func (t *Table) addPred(k ast.PredKey, id AtomID) {
	if t.lastList == nil || k != t.lastPred {
		l := t.preds[k]
		if l == nil {
			l = new([]AtomID)
			t.preds[k] = l
		}
		t.lastPred, t.lastList = k, l
	}
	*t.lastList = append(*t.lastList, id)
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

// keyHash is the hash of an atom's key: the predicate symbol id, then one
// id per argument.
func keyHash(pred term.ID, args []term.ID) uint64 {
	return term.HashIDs(term.Mix(term.HashSeed, uint32(pred)), args)
}

// hashAt is the key hash of atom id, recomputed from its stored key.
func (t *Table) hashAt(id int32) uint64 {
	return term.HashIDs(term.HashSeed, t.keys[t.keyOff[id]:t.keyOff[id+1]])
}

// find returns the atom with the given key hashing to h. Callers hold a
// lock.
func (t *Table) find(h uint64, pred term.ID, args []term.ID) (AtomID, bool) {
	for p := t.idx.Probe(h); ; {
		i, ok := p.Next()
		if !ok {
			return 0, false
		}
		k := t.keys[t.keyOff[i]:t.keyOff[i+1]]
		if len(k) == 1+len(args) && k[0] == pred && slices.Equal(k[1:], args) {
			return AtomID(i), true
		}
	}
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
	h := keyHash(pred, args)
	if id, ok := t.find(h, pred, args); ok {
		return id
	}
	return t.add(h, pred, args, a.Key())
}

// IDAtom is a ground atom given by interned ids: its predicate's name and
// symbol id, and its argument ids.
type IDAtom struct {
	Pred string
	Sym  term.ID
	Args []term.ID
}

// InternAtoms interns every atom under one write lock — a ground
// instance's head and body together — and appends their ids to dst. Only
// the ids are stored, so interning builds no ast.Atom, new or known.
func (t *Table) InternAtoms(dst []AtomID, atoms []IDAtom) []AtomID {
	t.mustOwn()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range atoms {
		a := &atoms[i]
		h := keyHash(a.Sym, a.Args)
		id, ok := t.find(h, a.Sym, a.Args)
		if !ok {
			id = t.add(h, a.Sym, a.Args, ast.PredKey{Name: a.Pred, Arity: len(a.Args)})
		}
		dst = append(dst, id)
	}
	return dst
}

// Reserve presizes an empty table for n atoms, so a caller that can
// estimate the atom count — the grounder, from its possible-atom relations
// — interns without rehashing or regrowing.
func (t *Table) Reserve(n int) {
	t.mustOwn()
	t.mu.Lock()
	if t.idx.Len() == 0 {
		t.idx.Reserve(n)
		t.keyOff = append(make([]int32, 0, n+1), 0)
	}
	t.mu.Unlock()
}

func (t *Table) mustOwn() {
	if t.parent != nil {
		panic("interp: intern into a sub-table")
	}
}

// add records a new atom of predicate k with key hash h (find missed it).
// Callers hold the write lock.
func (t *Table) add(h uint64, pred term.ID, args []term.ID, k ast.PredKey) AtomID {
	id := AtomID(t.idx.Add(h, t.hashAt))
	t.keys = append(append(t.keys, pred), args...)
	t.keyOff = append(t.keyOff, int32(len(t.keys)))
	t.addPred(k, id)
	return id
}

// Lookup returns the id of a ground atom and whether it is interned. It
// never interns: an atom whose predicate symbol or arguments are absent
// from the term table cannot have been interned. Lookup takes the read
// lock only, so any number of Lookups run against at most one writer.
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
	return t.LookupIDs(pred, args)
}

// LookupIDs returns the id of the ground atom with the given predicate
// symbol id and already-interned argument ids, without interning. Like
// Lookup it takes only the read lock and is safe against a concurrent
// writer.
func (t *Table) LookupIDs(pred term.ID, args []term.ID) (AtomID, bool) {
	if t.parent != nil {
		return t.local(t.parent.LookupIDs(pred, args))
	}
	h := keyHash(pred, args)
	t.mu.RLock()
	id, ok := t.find(h, pred, args)
	t.mu.RUnlock()
	return id, ok
}

// Atom returns the atom for an id, decoded from its stored key through the
// term table: the predicate is the key's symbol, each argument the term of
// its id, so a symbol "1" and the integer 1 stay distinct. Each call builds
// a fresh atom; it is for rendering and diagnostics, not for hot paths,
// which read Key.
func (t *Table) Atom(id AtomID) ast.Atom {
	k := t.Key(id)
	a := ast.Atom{Pred: t.symName(k[0])}
	if len(k) > 1 {
		a.Args = t.tab.AppendTerms(make([]ast.Term, 0, len(k)-1), k[1:])
	}
	return a
}

// Pred returns an atom's predicate, read off its stored key: the key's
// symbol names it and its length gives the arity. Nothing is decoded.
func (t *Table) Pred(id AtomID) ast.PredKey {
	k := t.Key(id)
	return ast.PredKey{Name: t.symName(k[0]), Arity: len(k) - 1}
}

// Key returns an atom's stored key: its predicate symbol id, then one id
// per argument, as interned into the term table. The slice is shared; do
// not modify.
func (t *Table) Key(id AtomID) []term.ID {
	if t.parent != nil {
		return t.parent.Key(t.ids[id])
	}
	t.mu.RLock()
	k := t.keys[t.keyOff[id]:t.keyOff[id+1]:t.keyOff[id+1]]
	t.mu.RUnlock()
	return k
}

// Len returns the number of interned atoms.
func (t *Table) Len() int {
	if t.parent != nil {
		return len(t.ids)
	}
	t.mu.RLock()
	n := t.idx.Len()
	t.mu.RUnlock()
	return n
}

// OfPred returns the ids of all interned atoms of a predicate, in
// interning order. The returned slice is shared; do not modify. A
// concurrent writer may append further atoms of the predicate, but the
// prefix the caller received is immutable.
func (t *Table) OfPred(k ast.PredKey) []AtomID {
	t.mu.RLock()
	var ids []AtomID
	if l := t.preds[k]; l != nil {
		ids = *l
	}
	t.mu.RUnlock()
	return ids
}

// LitString renders an interned literal using the table.
func (t *Table) LitString(l Lit) string {
	s := t.Atom(l.Atom()).String()
	if l.Neg() {
		return "-" + s
	}
	return s
}
