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
	// seen finds tuples by the hash of their ids (term.HashIDs), so the
	// dedup set costs no allocation per tuple; collisions are resolved by
	// comparing the stored ids.
	seen term.Index
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
	return &Relation{tab: tab, arity: arity, cols: make([]map[term.ID][]int32, arity)}
}

// Reserve presizes an empty relation for n tuples, so a caller that knows
// how many it is about to insert — the grounder, its facts — inserts
// without rehashing or regrowing.
func (r *Relation) Reserve(n int) {
	if r.Len() == 0 {
		r.seen.Reserve(n)
		r.flat = make([]term.ID, 0, max(r.arity, 1)*n)
	}
}

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

// lookupIndex returns the insertion index of the ID tuple, or -1.
func (r *Relation) lookupIndex(ids []term.ID) int {
	return r.find(term.HashIDs(term.HashSeed, ids), ids)
}

// find returns the index of the tuple equal to ids, which hash to h, or -1.
func (r *Relation) find(h uint64, ids []term.ID) int {
	for p := r.seen.Probe(h); ; {
		i, ok := p.Next()
		if !ok {
			return -1
		}
		if idsEqual(r.row(int(i)), ids) {
			return int(i)
		}
	}
}

// hashAt is the hash of tuple i, recomputed from its stored ids.
func (r *Relation) hashAt(i int32) uint64 {
	return term.HashIDs(term.HashSeed, r.row(int(i)))
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
	h := term.HashIDs(term.HashSeed, ids)
	if r.find(h, ids) >= 0 {
		return false
	}
	idx := r.seen.Add(h, r.hashAt)
	if r.arity == 0 {
		r.flat = append(r.flat, term.None) // sentinel; only Len matters
	} else {
		r.flat = append(r.flat, ids...)
	}
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

// Keys returns the predicate keys with a (possibly empty) relation.
func (s *Store) Keys() []ast.PredKey {
	out := make([]ast.PredKey, 0, len(s.rels))
	for k := range s.rels {
		out = append(out, k)
	}
	return out
}
