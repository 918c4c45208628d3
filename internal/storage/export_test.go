// Test-only accessors: methods the tests inspect state with that no
// production code calls.

package storage

import (
	"repro/internal/ast"
	"repro/internal/term"
)

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

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

// ContainsAtom reports whether the ground atom is present.
func (s *Store) ContainsAtom(a ast.Atom) bool {
	r := s.rels[a.Key()]
	return r != nil && r.Contains(a.Args)
}

// InsertAtom adds a ground atom to the store; it reports whether it was new.
func (s *Store) InsertAtom(a ast.Atom) bool { return s.Rel(a.Key()).Insert(a.Args) }

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

// Size returns the total number of tuples across relations.
func (s *Store) Size() int {
	n := 0
	for _, r := range s.rels {
		n += r.Len()
	}
	return n
}
