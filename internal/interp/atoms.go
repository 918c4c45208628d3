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
// plus the interned ids of their arguments (internal/term), so interning an
// already-seen atom costs one hash over a few ids and one map probe instead
// of re-serialising the atom to a string. The zero value is not usable;
// call NewTable.
//
// Like term.Table, an atom table is safe for concurrent use: Intern and
// InternAtoms take the write lock (so concurrent writers serialise on the
// mutex), and Lookup/LookupIDs/Atom/Len/OfPred/Preds take the read lock.
// The engine relies on this: snapshot readers — queries, and the cone and
// goal-slice sub-tables that answer through their parent — read the table a
// version shares with its successors while the single writer interns an
// update's atoms (delta grounding).
type Table struct {
	mu  sync.RWMutex
	tab *term.Table
	// seen maps the hash of an atom's key — predicate symbol id, then
	// argument ids — to the newest atom with that hash, and chain[i] links
	// atom i to the previous one (-1: none). Atom i's key is
	// keys[keyOff[i]:keyOff[i+1]], so collisions resolve by comparing ids
	// and a new atom allocates no key of its own.
	seen   map[uint64]AtomID
	chain  []AtomID
	keys   []term.ID
	keyOff []int32
	atoms  []ast.Atom
	preds  map[ast.PredKey]*[]AtomID
	// lastPred and lastList cache the predicate list the last new atom
	// went to: atoms are interned in runs of one predicate.
	lastPred ast.PredKey
	lastList *[]AtomID
	// argArena is the chunk InternAtoms carves new atoms' arguments from
	// (argChunk its doubling size); atoms are never rewritten.
	argArena []ast.Term
	argChunk int

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
	return &Table{tab: tab, seen: make(map[uint64]AtomID), keyOff: []int32{0}, preds: make(map[ast.PredKey]*[]AtomID)}
}

// Sub returns a read-only table over some of t's atoms, renumbered densely:
// atom i of the result is t's atom ids[i]. ids must be strictly ascending
// and t must not itself be a sub-table. The result shares t's term table and
// resolves lookups through t, so it stores nothing per atom beyond ids and
// its predicate lists — interpretations and views over it are sized by
// len(ids), not by t. Interning into a sub-table panics.
func (t *Table) Sub(ids []AtomID) *Table {
	s := &Table{tab: t.tab, parent: t, ids: ids, preds: make(map[ast.PredKey]*[]AtomID)}
	t.mu.RLock()
	for i, id := range ids {
		s.addPred(t.atoms[id].Key(), AtomID(i))
	}
	t.mu.RUnlock()
	return s
}

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

// keyHash is the FNV-1a hash of an atom's key: the predicate symbol id,
// then one id per argument.
func keyHash(pred term.ID, args []term.ID) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(id term.ID) {
		v := uint32(id)
		h = (h ^ uint64(v&0xff)) * prime64
		h = (h ^ uint64((v>>8)&0xff)) * prime64
		h = (h ^ uint64((v>>16)&0xff)) * prime64
		h = (h ^ uint64(v>>24)) * prime64
	}
	mix(pred)
	for _, id := range args {
		mix(id)
	}
	return h
}

// find walks the chain of atoms hashing to h. It returns the atom with the
// given key (found) and the newest atom of the chain (-1: none), the link a
// new atom with this hash must point to. Callers hold a lock.
func (t *Table) find(h uint64, pred term.ID, args []term.ID) (id, newest AtomID, found bool) {
	newest, ok := t.seen[h]
	if !ok {
		return 0, -1, false
	}
	for i := newest; i >= 0; i = t.chain[i] {
		k := t.keys[t.keyOff[i]:t.keyOff[i+1]]
		if len(k) == 1+len(args) && k[0] == pred && slices.Equal(k[1:], args) {
			return i, newest, true
		}
	}
	return 0, newest, false
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
	id, newest, ok := t.find(h, pred, args)
	if ok {
		return id
	}
	return t.add(h, newest, pred, args, a)
}

// IDAtom is a ground atom given by interned ids: its predicate's name and
// symbol id, and its argument ids. Atom, when set (Pred non-empty), is the
// same atom as written — a ground atom of a rule — and is stored as is if
// the atom is new, instead of decoding Args.
type IDAtom struct {
	Pred string
	Sym  term.ID
	Args []term.ID
	Atom ast.Atom
}

// InternAtoms interns every atom under one write lock — a ground
// instance's head and body together — and appends their ids to dst. An
// atom is decoded from the term table only when it is new, so re-interning
// known atoms builds no ast.Atom at all; new atoms' arguments are carved
// from a shared arena rather than allocated one slice each.
func (t *Table) InternAtoms(dst []AtomID, atoms []IDAtom) []AtomID {
	t.mustOwn()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range atoms {
		a := &atoms[i]
		h := keyHash(a.Sym, a.Args)
		id, newest, ok := t.find(h, a.Sym, a.Args)
		if !ok {
			at := ast.Atom{Pred: a.Pred}
			if a.Atom.Pred != "" {
				at = a.Atom
			} else if n := len(a.Args); n > 0 {
				if len(t.argArena) < n {
					t.argChunk = min(max(2*t.argChunk, 16), 256)
					t.argArena = make([]ast.Term, max(t.argChunk, n))
				}
				at.Args = t.tab.AppendTerms(t.argArena[:0:n], a.Args)
				t.argArena = t.argArena[n:]
			}
			id = t.add(h, newest, a.Sym, a.Args, at)
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
	if len(t.atoms) == 0 {
		t.seen = make(map[uint64]AtomID, n)
		t.atoms = make([]ast.Atom, 0, n)
	}
	t.mu.Unlock()
}

func (t *Table) mustOwn() {
	if t.parent != nil {
		panic("interp: intern into a sub-table")
	}
}

// add records a new atom with key hash h, linked to newest (find's). Callers
// hold the write lock.
func (t *Table) add(h uint64, newest AtomID, pred term.ID, args []term.ID, a ast.Atom) AtomID {
	id := AtomID(len(t.atoms))
	t.seen[h] = id
	t.chain = append(t.chain, newest)
	t.keys = append(append(t.keys, pred), args...)
	t.keyOff = append(t.keyOff, int32(len(t.keys)))
	t.atoms = append(t.atoms, a)
	t.addPred(a.Key(), id)
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
	id, _, ok := t.find(h, pred, args)
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
	var ids []AtomID
	if l := t.preds[k]; l != nil {
		ids = *l
	}
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
