// Package storage implements the in-memory extensional store: ground
// relations with per-column hash indexes, plus a Store keyed by predicate.
// It is the substrate under the grounder's possible-atom fixpoint and under
// the classical Datalog baselines.
//
// Tuples are stored as interned term IDs (internal/term): Insert interns
// each argument once and every later membership test, index probe and join
// comparison is an int32 operation, instead of the per-call string
// re-serialisation of the original string-keyed layout.
package storage

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/term"
)

// Relation is a set of ground tuples of fixed arity with one hash index per
// column. Tuples are append-only and held as a flat []term.ID, arity ids
// per tuple.
type Relation struct {
	tab   *term.Table
	arity int
	flat  []term.ID // len = arity * Len()
	// seen maps the FNV-1a hash of an ID tuple to the newest tuple with that
	// hash and chain[i] links tuple i to the previous one (-1: none), so the
	// dedup set costs no allocation per tuple; collisions are resolved by
	// comparing the stored ids.
	seen  map[uint64]int32
	chain []int32
	// cols[c] indexes column c: term id -> ascending tuple indexes. A
	// column's index is built on the first probe that binds it (nil until
	// then) and kept up to date from there, so a relation only ever
	// scanned — most derived ones — builds none.
	cols []map[term.ID][]int32
	// arena is the chunk new column buckets take their first slot from (most
	// buckets of a key-like column never grow past it); arenaChunk is the
	// size of the last chunk, doubling up to maxBucketChunk.
	arena      []int32
	arenaChunk int
}

const maxBucketChunk = 1024

// NewRelation returns an empty relation of the given arity over tab.
func NewRelation(tab *term.Table, arity int) *Relation {
	return &Relation{tab: tab, arity: arity, seen: make(map[uint64]int32), cols: make([]map[term.ID][]int32, arity)}
}

// Table returns the term table the relation interns into.
func (r *Relation) Table() *term.Table { return r.tab }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.arity == 0 {
		return len(r.flat) // arity-0 relations store one sentinel id per tuple
	}
	return len(r.flat) / r.arity
}

// row returns the ids of the i-th tuple (a view into the flat storage).
func (r *Relation) row(i int) []term.ID {
	if r.arity == 0 {
		return nil
	}
	return r.flat[i*r.arity : (i+1)*r.arity]
}

// TupleIDs returns the interned ids of the i-th tuple (insertion order).
// The slice aliases internal storage; callers must not modify it.
func (r *Relation) TupleIDs(i int) []term.ID { return r.row(i) }

// Tuple returns the i-th tuple decoded to AST terms. It allocates; hot
// paths should use TupleIDs.
func (r *Relation) Tuple(i int) []ast.Term {
	ids := r.row(i)
	out := make([]ast.Term, len(ids))
	for j, id := range ids {
		out[j] = r.tab.Term(id)
	}
	return out
}

// lookupIndex returns the insertion index of the ID tuple, or -1.
func (r *Relation) lookupIndex(ids []term.ID) int {
	idx, _ := r.find(term.HashIDs(ids), ids)
	return idx
}

// find walks the chain of tuples hashing to h. It returns the index of the
// tuple equal to ids (or -1) and the newest tuple of the chain (or -1), the
// link a new tuple with this hash must point to.
func (r *Relation) find(h uint64, ids []term.ID) (idx int, newest int32) {
	newest, ok := r.seen[h]
	if !ok {
		return -1, -1
	}
	for i := newest; i >= 0; i = r.chain[i] {
		if idsEqual(r.row(int(i)), ids) {
			return int(i), newest
		}
	}
	return -1, newest
}

func idsEqual(a, b []term.ID) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// InsertIDs adds a tuple of already-interned ids; it reports whether the
// tuple was new. The ids are copied.
func (r *Relation) InsertIDs(ids []term.ID) bool {
	if len(ids) != r.arity {
		panic("storage: tuple arity mismatch")
	}
	h := term.HashIDs(ids)
	dup, prev := r.find(h, ids)
	if dup >= 0 {
		return false
	}
	idx := int32(r.Len())
	if r.arity == 0 {
		r.flat = append(r.flat, term.None) // sentinel; only Len matters
	} else {
		r.flat = append(r.flat, ids...)
	}
	r.seen[h] = idx
	r.chain = append(r.chain, prev)
	for c, col := range r.cols {
		if col != nil {
			r.index(col, ids[c], idx)
		}
	}
	return true
}

// index appends tuple idx to the bucket of id in a column index.
func (r *Relation) index(col map[term.ID][]int32, id term.ID, idx int32) {
	b, ok := col[id]
	if !ok {
		b = r.newBucket()
	}
	col[id] = append(b, idx)
}

// column returns column c's index, building it on first use.
func (r *Relation) column(c int) map[term.ID][]int32 {
	if r.cols[c] == nil {
		col := make(map[term.ID][]int32)
		for i, n := 0, r.Len(); i < n; i++ {
			r.index(col, r.flat[i*r.arity+c], int32(i))
		}
		r.cols[c] = col
	}
	return r.cols[c]
}

// newBucket returns an empty column bucket with room for one index, carved
// from the arena. A bucket that outgrows its slot moves to the heap like
// any appended slice, leaving the slot behind.
func (r *Relation) newBucket() []int32 {
	if len(r.arena) == 0 {
		r.arenaChunk = min(max(2*r.arenaChunk, 8), maxBucketChunk)
		r.arena = make([]int32, r.arenaChunk)
	}
	b := r.arena[:0:1]
	r.arena = r.arena[1:]
	return b
}

// Insert adds a ground tuple; it reports whether the tuple was new.
func (r *Relation) Insert(args []ast.Term) bool {
	if len(args) != r.arity {
		panic("storage: tuple arity mismatch")
	}
	var buf [8]term.ID
	ids := buf[:0]
	for _, t := range args {
		ids = append(ids, r.tab.Intern(t))
	}
	return r.InsertIDs(ids)
}

// ContainsIDs reports whether the ID tuple is present.
func (r *Relation) ContainsIDs(ids []term.ID) bool { return r.lookupIndex(ids) >= 0 }

// Contains reports whether the ground tuple is present. Terms never
// interned cannot be in any tuple, so the test is a pure lookup.
func (r *Relation) Contains(args []ast.Term) bool {
	if len(args) != r.arity {
		return false
	}
	var buf [8]term.ID
	ids := buf[:0]
	for _, t := range args {
		id, ok := r.tab.Lookup(t)
		if !ok {
			return false
		}
		ids = append(ids, id)
	}
	return r.ContainsIDs(ids)
}

// cutBucket returns the position of the first index >= lo in the ascending
// bucket. Buckets are ascending because tuples are append-only, so a delta
// scan is a binary search to the cut point, not a filtered copy.
func cutBucket(bucket []int32, lo int) int {
	if lo == 0 || len(bucket) == 0 || bucket[0] >= int32(lo) {
		return 0
	}
	return sort.Search(len(bucket), func(i int) bool { return bucket[i] >= int32(lo) })
}

// bestBucket picks the smallest column bucket among the bound pattern
// positions. It returns (bucket, true) when some position is bound, where a
// nil bucket means no tuple can match.
func (r *Relation) bestBucket(pattern []term.ID) ([]int32, bool) {
	var best []int32
	bound := false
	for c := 0; c < r.arity && c < len(pattern); c++ {
		if pattern[c] == term.None {
			continue
		}
		b := r.column(c)[pattern[c]]
		if !bound || len(b) < len(best) {
			best = b
		}
		bound = true
		if len(best) == 0 {
			break
		}
	}
	return best, bound
}

// EachCandidate calls fn with the index of every tuple that may match the
// pattern, in ascending insertion order starting at lo: pattern positions
// holding an interned id restrict the scan to the smallest matching column
// bucket; term.None positions are unconstrained. Candidates are not
// guaranteed to match on the other columns; callers must still compare.
// Iteration stops at the first non-nil error, which is returned. The
// iteration allocates nothing.
func (r *Relation) EachCandidate(pattern []term.ID, lo int, fn func(i int) error) error {
	bucket, bound := r.bestBucket(pattern)
	if bound {
		for _, i := range bucket[cutBucket(bucket, lo):] {
			if err := fn(int(i)); err != nil {
				return err
			}
		}
		return nil
	}
	for i, n := lo, r.Len(); i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// Candidates returns tuple indexes to examine for a pattern whose
// arguments may contain variables, as EachCandidate does for an interned
// pattern: ground argument positions restrict the scan to the smallest
// matching column bucket, from lo (inclusive) onward. Kept for callers and
// tests that want a materialised slice; join loops use EachCandidate.
func (r *Relation) Candidates(pattern []ast.Term, lo int) []int {
	var buf [8]term.ID
	ids := buf[:0]
	for c := 0; c < r.arity && c < len(pattern); c++ {
		id := term.None
		if pattern[c] != nil && pattern[c].Ground() {
			got, ok := r.tab.Lookup(pattern[c])
			if ok {
				id = got
			}
			// A ground term never interned matches nothing: keep id at
			// term.None only if we want "unconstrained" — here the column
			// is bound to a missing term, so the candidate set is empty.
			if !ok {
				return nil
			}
		}
		ids = append(ids, id)
	}
	var out []int
	r.EachCandidate(ids, lo, func(i int) error { //nolint:errcheck // fn never errors
		out = append(out, i)
		return nil
	})
	return out
}

// Store is a set of relations keyed by predicate, sharing one term table.
type Store struct {
	tab  *term.Table
	rels map[ast.PredKey]*Relation
}

// NewStore returns an empty store with a fresh term table.
func NewStore() *Store { return NewStoreWith(term.NewTable()) }

// NewStoreWith returns an empty store interning into tab, so callers can
// share one term table between the store and their own atom tables.
func NewStoreWith(tab *term.Table) *Store {
	return &Store{tab: tab, rels: make(map[ast.PredKey]*Relation)}
}

// Table returns the store's term table.
func (s *Store) Table() *term.Table { return s.tab }

// Rel returns the relation for key, creating it if needed.
func (s *Store) Rel(k ast.PredKey) *Relation {
	r, ok := s.rels[k]
	if !ok {
		r = NewRelation(s.tab, k.Arity)
		s.rels[k] = r
	}
	return r
}

// Peek returns the relation for key or nil without creating it.
func (s *Store) Peek(k ast.PredKey) *Relation { return s.rels[k] }

// InsertAtom adds a ground atom to the store; it reports whether it was new.
func (s *Store) InsertAtom(a ast.Atom) bool { return s.Rel(a.Key()).Insert(a.Args) }

// ContainsAtom reports whether the ground atom is present.
func (s *Store) ContainsAtom(a ast.Atom) bool {
	r := s.rels[a.Key()]
	return r != nil && r.Contains(a.Args)
}

// Size returns the total number of tuples across relations.
func (s *Store) Size() int {
	n := 0
	for _, r := range s.rels {
		n += r.Len()
	}
	return n
}

// Keys returns the predicate keys with a (possibly empty) relation.
func (s *Store) Keys() []ast.PredKey {
	out := make([]ast.PredKey, 0, len(s.rels))
	for k := range s.rels {
		out = append(out, k)
	}
	return out
}
