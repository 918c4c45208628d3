// Package term implements a hash-consing interner for the term language of
// internal/ast: every distinct ground term (symbol, integer, compound) is
// assigned a dense int32 ID exactly once, making structural equality an
// integer comparison and letting the storage layer keep tuples as []ID
// instead of re-serialising terms to strings on every access.
//
// Variables are also accepted (keyed by name) so that callers which
// tolerated variables in canonical-string keys — atom tables used for
// diagnostics — keep working; relations only ever hold ground tuples.
package term

import (
	"sync"

	"repro/internal/ast"
)

// ID identifies an interned term. IDs are dense: the first interned term
// gets 0, the next 1, and so on, so they index directly into per-column
// buckets and dense side tables.
type ID int32

// None is the sentinel for "no term": unbound pattern positions and failed
// lookups.
const None ID = -1

// Table interns terms. The zero value is not usable; call NewTable.
//
// A Table is safe for concurrent use: the mutating methods (Intern,
// InternSym) take the write lock — concurrent writers serialise on the
// mutex, which also guards the shared key scratch — and the reading
// methods (Lookup, LookupSym, Term, Len) take the read lock. The engine
// funnels interning through one grounding run or snapshot update at a
// time, but snapshot readers resolve terms of the table a version shares
// with its successors while that single writer interns new ones.
type Table struct {
	mu    sync.RWMutex
	syms  map[string]ID
	ints  map[int64]ID
	vars  map[string]ID
	comps map[string]ID // packed functor + arg-ID key -> ID
	terms []ast.Term
	buf   []byte // scratch for Intern's compound keys; lookups must not touch it
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{
		syms:  make(map[string]ID),
		ints:  make(map[int64]ID),
		vars:  make(map[string]ID),
		comps: make(map[string]ID),
	}
}

// Term returns the term for an id. The result shares structure with the
// interned term; ground terms are immutable by convention.
func (t *Table) Term(id ID) ast.Term {
	t.mu.RLock()
	x := t.terms[id]
	t.mu.RUnlock()
	return x
}

// AppendTerms appends the terms for ids to dst under one read lock — the
// batch form of Term for callers decoding whole rows.
func (t *Table) AppendTerms(dst []ast.Term, ids []ID) []ast.Term {
	t.mu.RLock()
	for _, id := range ids {
		dst = append(dst, t.terms[id])
	}
	t.mu.RUnlock()
	return dst
}

func (t *Table) add(x ast.Term) ID {
	id := ID(len(t.terms))
	t.terms = append(t.terms, x)
	return id
}

// AppendID packs an ID as 4 little-endian bytes. Shared key-encoding helper
// for tables that build composite keys over term IDs (atom interning,
// ground-instance dedup).
func AppendID(b []byte, id ID) []byte {
	v := int32(id)
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// compoundKey builds the canonical packed key for a compound with already
// interned argument ids into the scratch buffer b and returns it. The
// functor is length-prefixed so that functor bytes can never bleed into the
// argument ids. Taking the scratch as an argument keeps Lookup read-only
// (callers pass a stack buffer) while Intern reuses the table's own.
func compoundKey(b []byte, functor string, args []ID) []byte {
	b = AppendID(b[:0], ID(len(functor)))
	b = append(b, functor...)
	for _, id := range args {
		b = AppendID(b, id)
	}
	return b
}

// Interner interns terms: a *Table, which takes its lock per call, or a
// Batch, which holds it across many calls.
type Interner interface {
	Intern(x ast.Term) ID
	InternSym(s string) ID
}

// Batch interns into a table under one write lock, taken by Table.Batch
// and released by Done: a caller interning a whole program's terms pays
// for the lock once, not per term. Nothing else may use the table until
// Done.
type Batch struct{ t *Table }

// Batch takes the table's write lock for a run of interns.
func (t *Table) Batch() Batch {
	t.mu.Lock()
	return Batch{t}
}

// Intern is Table.Intern under the batch's lock.
func (b Batch) Intern(x ast.Term) ID { return b.t.internLocked(x) }

// InternSym is Table.InternSym under the batch's lock.
func (b Batch) InternSym(s string) ID { return b.t.internSymLocked(s) }

// Done releases the lock.
func (b Batch) Done() { b.t.mu.Unlock() }

// InternSym returns the id for the symbol s, interning it if needed. It is
// Intern(ast.Sym(s)) without boxing the symbol into an interface on the
// already-interned path.
func (t *Table) InternSym(s string) ID {
	t.mu.Lock()
	id := t.internSymLocked(s)
	t.mu.Unlock()
	return id
}

func (t *Table) internSymLocked(s string) ID {
	if id, ok := t.syms[s]; ok {
		return id
	}
	id := t.add(ast.Sym(s))
	t.syms[s] = id
	return id
}

// LookupSym returns the id of the symbol s without interning.
func (t *Table) LookupSym(s string) (ID, bool) {
	t.mu.RLock()
	id, ok := t.syms[s]
	t.mu.RUnlock()
	return id, ok
}

// Intern returns the id for x, interning it (and, for compounds, every
// subterm) if needed. Two structurally equal terms always receive the same
// id, so ID equality is structural equality.
func (t *Table) Intern(x ast.Term) ID {
	t.mu.Lock()
	id := t.internLocked(x)
	t.mu.Unlock()
	return id
}

func (t *Table) internLocked(x ast.Term) ID {
	// New constants and variables are stored as the interface value the
	// caller passed, not re-boxed from the type switch's copy: interning a
	// fresh term allocates nothing beyond the tables' own growth.
	switch v := x.(type) {
	case ast.Sym:
		if id, ok := t.syms[string(v)]; ok {
			return id
		}
		id := t.add(x)
		t.syms[string(v)] = id
		return id
	case ast.Int:
		if id, ok := t.ints[int64(v)]; ok {
			return id
		}
		id := t.add(x)
		t.ints[int64(v)] = id
		return id
	case ast.Var:
		if id, ok := t.vars[v.Name]; ok {
			return id
		}
		id := t.add(x)
		t.vars[v.Name] = id
		return id
	case ast.Compound:
		var buf [8]ID
		ids := buf[:0]
		for _, a := range v.Args {
			ids = append(ids, t.internLocked(a))
		}
		t.buf = compoundKey(t.buf, v.Functor, ids)
		if id, ok := t.comps[string(t.buf)]; ok {
			return id
		}
		id := t.add(x)
		t.comps[string(t.buf)] = id
		return id
	}
	panic("term: intern of unknown term kind")
}

// InternCompound returns the id of the compound functor(args...) given its
// already-interned argument ids, interning it if needed: the join kernel
// builds instance arguments from frame ids without an ast.Term in hand.
func (t *Table) InternCompound(functor string, args []ID) ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = compoundKey(t.buf, functor, args)
	if id, ok := t.comps[string(t.buf)]; ok {
		return id
	}
	c := ast.Compound{Functor: functor, Args: make([]ast.Term, len(args))}
	for i, a := range args {
		c.Args[i] = t.terms[a]
	}
	id := t.add(c)
	t.comps[string(t.buf)] = id
	return id
}

// LookupCompound returns the id of the compound functor(args...) without
// interning; false when it was never interned.
func (t *Table) LookupCompound(functor string, args []ID) (ID, bool) {
	var kb [64]byte
	key := compoundKey(kb[:0], functor, args)
	t.mu.RLock()
	id, ok := t.comps[string(key)]
	t.mu.RUnlock()
	return id, ok
}

// Decompose splits a compound's id into its functor and argument ids,
// appended to dst. ok is false when id is not a compound.
func (t *Table) Decompose(id ID, dst []ID) (functor string, args []ID, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, isCompound := t.terms[id].(ast.Compound)
	if !isCompound {
		return "", dst, false
	}
	for _, a := range c.Args {
		aid, _ := t.lookupLocked(a) // subterms are interned with the compound
		dst = append(dst, aid)
	}
	return c.Functor, dst, true
}

// Lookup returns the id of x without interning. The second result is false
// when x (or any subterm) has never been interned — in particular, a ground
// term not present in any relation of the owning store. Lookup takes the
// read lock only (and never touches the table's scratch buffer), so any
// number of concurrent Lookups run against at most one writer.
func (t *Table) Lookup(x ast.Term) (ID, bool) {
	t.mu.RLock()
	id, ok := t.lookupLocked(x)
	t.mu.RUnlock()
	return id, ok
}

func (t *Table) lookupLocked(x ast.Term) (ID, bool) {
	switch x := x.(type) {
	case ast.Sym:
		id, ok := t.syms[string(x)]
		return id, ok
	case ast.Int:
		id, ok := t.ints[int64(x)]
		return id, ok
	case ast.Var:
		id, ok := t.vars[x.Name]
		return id, ok
	case ast.Compound:
		var buf [8]ID
		ids := buf[:0]
		for _, a := range x.Args {
			id, ok := t.lookupLocked(a)
			if !ok {
				return None, false
			}
			ids = append(ids, id)
		}
		var kb [64]byte
		id, ok := t.comps[string(compoundKey(kb[:0], x.Functor, ids))]
		return id, ok
	}
	return None, false
}

// HashSeed is the FNV-1a offset basis, the state a fresh hash starts from.
const HashSeed uint64 = 14695981039346656037

// Mix folds the four bytes of v, low byte first, into the FNV-1a state h.
// Every key hash in the engine — atoms, tuples, ground instances — is a
// sequence of Mix steps from HashSeed.
func Mix(h uint64, v uint32) uint64 {
	const prime64 = 1099511628211
	h = (h ^ uint64(v&0xff)) * prime64
	h = (h ^ uint64((v>>8)&0xff)) * prime64
	h = (h ^ uint64((v>>16)&0xff)) * prime64
	return (h ^ uint64(v>>24)) * prime64
}

// HashIDs continues the FNV-1a state h over an ID tuple; HashIDs(HashSeed,
// ids) hashes the tuple alone.
func HashIDs(h uint64, ids []ID) uint64 {
	for _, id := range ids {
		h = Mix(h, uint32(id))
	}
	return h
}
