// Selectivity-driven join planning and execution over relations.
//
// Every multi-literal join in the engine — the semi-naive Datalog deltas,
// the grounder's fireable and competitor passes, the classical baselines —
// used to walk body literals in textual order. Join instead orders the
// literals greedily by boundness (most already-bound argument positions
// first, ties broken by smallest relation), then enumerates matching
// substitutions over the interned tuples with per-level pattern buffers, so
// the inner loop does integer comparisons and allocates nothing per
// candidate.
package storage

import (
	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/term"
	"repro/internal/unify"
)

// JoinLit is one positive body literal of a join: a pattern over a
// relation. A nil Rel means the relation does not exist (no matches). Lo
// restricts the scan to tuples at insertion index >= Lo (semi-naive delta).
type JoinLit struct {
	Rel  *Relation
	Args []ast.Term
	Lo   int
}

// nameIn reports membership in the small bound-variable-name list. Bodies
// are a handful of literals, so a linear scan beats a map allocation.
func nameIn(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// termBoundIn reports whether every variable of t is in bound.
func termBoundIn(t ast.Term, bound []string) bool {
	switch t := t.(type) {
	case ast.Var:
		return nameIn(bound, t.Name)
	case ast.Compound:
		for _, a := range t.Args {
			if !termBoundIn(a, bound) {
				return false
			}
		}
	}
	return true
}

// collectVars appends the variable names of t not already present.
func collectVars(t ast.Term, bound []string) []string {
	switch t := t.(type) {
	case ast.Var:
		if !nameIn(bound, t.Name) {
			bound = append(bound, t.Name)
		}
	case ast.Compound:
		for _, a := range t.Args {
			bound = collectVars(a, bound)
		}
	}
	return bound
}

// seedBound appends the names of t's variables that s already resolves to
// a ground term, so the planner credits positions bound by the incoming
// substitution (e.g. a head match) as selective.
func seedBound(s *unify.Subst, t ast.Term, bound []string) []string {
	switch v := t.(type) {
	case ast.Var:
		if !nameIn(bound, v.Name) {
			w := s.Walk(t) // t, not v: re-boxing the variable would allocate
			if _, isVar := w.(ast.Var); !isVar && w.Ground() {
				bound = append(bound, v.Name)
			}
		}
	case ast.Compound:
		for _, a := range v.Args {
			bound = seedBound(s, a, bound)
		}
	}
	return bound
}

// PlanJoin returns the greedy join order: starting from the literal in
// first (or nothing), repeatedly pick the unplaced literal with the most
// bound argument positions, breaking ties by smallest relation then by
// source position. first >= 0 forces that literal to the front (the
// semi-naive delta literal, whose restricted scan should bind before
// anything else). Variables the incoming substitution s already grounds
// (a nil s means none) count as bound from the start. The plan depends
// only on boundness and relation sizes, never on body order beyond final
// tie-breaks, which makes join cost insensitive to how the program author
// ordered the body.
func PlanJoin(s *unify.Subst, lits []JoinLit, first int) []int {
	n := len(lits)
	order := make([]int, 0, n)
	var usedBuf [16]bool
	used := usedBuf[:]
	if n > len(usedBuf) {
		used = make([]bool, n)
	}
	var boundBuf [24]string
	bound := boundBuf[:0]
	if s != nil && s.Len() > 0 {
		for i := range lits {
			for _, a := range lits[i].Args {
				bound = seedBound(s, a, bound)
			}
		}
	}
	place := func(i int) {
		order = append(order, i)
		used[i] = true
		for _, a := range lits[i].Args {
			bound = collectVars(a, bound)
		}
	}
	if first >= 0 && first < n {
		place(first)
	}
	for len(order) < n {
		best, bestBound, bestSize := -1, -1, 0
		for i := range lits {
			if used[i] {
				continue
			}
			nb := 0
			for _, a := range lits[i].Args {
				if termBoundIn(a, bound) {
					nb++
				}
			}
			size := 0
			if lits[i].Rel != nil {
				size = lits[i].Rel.Len()
			}
			if best == -1 || nb > bestBound || (nb == bestBound && size < bestSize) {
				best, bestBound, bestSize = i, nb, size
			}
		}
		place(best)
	}
	return order
}

// sequentialOrder is the planner-off order: source order with first moved
// to the front.
func sequentialOrder(n, first int) []int {
	order := make([]int, 0, n)
	if first >= 0 && first < n {
		order = append(order, first)
	}
	for i := 0; i < n; i++ {
		if i != first {
			order = append(order, i)
		}
	}
	return order
}

// Join enumerates every substitution extending s that matches all literals
// against their relations, calling yield once per complete match (bindings
// are live in s during the call and undone afterwards). first >= 0 forces
// that literal to be joined first (delta literal); plan selects the greedy
// selectivity order (true) or source order (false, the differential-test
// ablation). Iteration stops at the first non-nil error from yield, which
// is propagated.
func Join(s *unify.Subst, lits []JoinLit, first int, plan bool, yield func() error) error {
	n := len(lits)
	if n == 0 {
		return yield()
	}
	var order []int
	if plan {
		order = PlanJoin(s, lits, first)
	} else {
		order = sequentialOrder(n, first)
	}
	if obs.On() {
		mJoins.Inc()
		if plan {
			mJoinsPlanned.Inc()
			if !isSequential(order, first) {
				mJoinsReordered.Inc()
			}
		}
		if first >= 0 {
			mJoinDeltaFirst.Inc()
		}
	}
	// Per-level pattern buffers: interned id per position (term.None =
	// unconstrained) plus the walked pattern term for non-ground positions.
	maxA := 0
	for _, l := range lits {
		if len(l.Args) > maxA {
			maxA = len(l.Args)
		}
	}
	patIDs := make([]term.ID, n*maxA)
	patTerms := make([]ast.Term, n*maxA)

	var rec func(k int) error
	rec = func(k int) error {
		if k == n {
			return yield()
		}
		l := lits[order[k]]
		if l.Rel == nil {
			return nil
		}
		tab := l.Rel.tab
		ids := patIDs[k*maxA : k*maxA+len(l.Args)]
		pats := patTerms[k*maxA : k*maxA+len(l.Args)]
		for j, a := range l.Args {
			w := a
			if !w.Ground() {
				if _, ok := w.(ast.Var); ok {
					w = s.Walk(w) // binding or the var itself; no copy, no re-boxing
				} else {
					w = s.Apply(a) // partially bound compound
				}
			}
			if w.Ground() {
				id, ok := tab.Lookup(w)
				if !ok {
					return nil // term in no tuple of this store: no match
				}
				ids[j], pats[j] = id, nil
			} else {
				ids[j], pats[j] = term.None, w
			}
		}
		// Enumerate candidates directly off the column buckets (same
		// package): no per-level iterator closure.
		match := func(ti int) error {
			tup := l.Rel.TupleIDs(ti)
			for j, id := range ids {
				if id != term.None && tup[j] != id {
					return nil
				}
			}
			mark := s.Mark()
			for j, p := range pats {
				if p == nil {
					continue
				}
				if !unify.MatchID(s, p, tup[j], tab) {
					s.Undo(mark)
					return nil
				}
			}
			err := rec(k + 1)
			s.Undo(mark)
			return err
		}
		bucket, bound := l.Rel.bestBucket(ids)
		if bound {
			for _, ti := range bucket[cutBucket(bucket, l.Lo):] {
				if err := match(int(ti)); err != nil {
					return err
				}
			}
			return nil
		}
		for ti, m := l.Lo, l.Rel.Len(); ti < m; ti++ {
			if err := match(ti); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}
