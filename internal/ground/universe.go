// Package ground instantiates ordered programs: it computes a finite
// Herbrand universe (depth-bounded in the presence of function symbols) and
// produces the set of ground rule instances over interned atoms that the
// evaluator runs on.
//
// Two modes are provided. ModeFull enumerates every instance over the full
// universe and interns the complete Herbrand base: it is the reference
// semantics, exact for arbitrary model checking, and exponential in rule
// width. ModeSmart computes a Datalog over-approximation of the possibly-
// true and possibly-false atoms and instantiates only instances that can
// either fire or act as competitors (overrule/defeat) of firing rules; its
// atom table is the *relevant* Herbrand base. For every atom it interns,
// ModeSmart agrees with ModeFull on least, assumption-free and stable
// models; atoms it omits are undefined in every such model.
package ground

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/term"
)

// ErrBudget reports that grounding exceeded a configured size budget.
type ErrBudget struct {
	What  string
	Limit int
}

// Error implements the error interface.
func (e *ErrBudget) Error() string {
	return fmt.Sprintf("ground: %s budget exceeded (limit %d); raise the budget or simplify the program", e.What, e.Limit)
}

// universe computes the Herbrand universe from what compileSource noted:
// the constants with a positive count, in the ast.CompareTerms order
// (integers by value, then symbols by name), or the conventional fresh
// constant u0 when there are none but some rule has a variable; then the
// compounds of the arguments' function symbols over them, nested up to
// maxDepth (< 0: the deepest argument), all of it in the same order. A
// positive budget caps its size. It sets uni, uniIDs and uniFallback.
func (g *grounder) universe(maxDepth int, budget int) error {
	tt := g.tab.TermTable()
	ids := make([]term.ID, 0, len(g.constRefs)+writeRoom) // room for what asserts add
	for id, n := range g.constRefs {
		if n > 0 {
			ids = append(ids, term.ID(id))
		}
	}
	if len(ids) == 0 && g.hasVars {
		ids = append(ids, tt.Intern(ast.Sym("u0")))
		g.uniFallback = true
	}
	if maxDepth < 0 {
		maxDepth = g.depth
	}
	if maxDepth >= 1 && len(g.functors) > 0 {
		var err error
		if ids, err = g.functorClosure(ids, maxDepth, budget); err != nil {
			return err
		}
	}
	if budget > 0 && len(ids) > budget {
		return &ErrBudget{"universe", budget}
	}
	g.uni = tt.AppendTerms(make([]ast.Term, 0, cap(ids)), ids)
	g.uniIDs = ids
	sort.Sort(byTerm{g.uni, g.uniIDs})
	return nil
}

// byTerm sorts terms in the ast.CompareTerms order, their ids alongside.
type byTerm struct {
	terms []ast.Term
	ids   []term.ID
}

func (s byTerm) Len() int           { return len(s.terms) }
func (s byTerm) Less(i, j int) bool { return ast.CompareTerms(s.terms[i], s.terms[j]) < 0 }
func (s byTerm) Swap(i, j int) {
	s.terms[i], s.terms[j] = s.terms[j], s.terms[i]
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
}

// functorClosure appends to the base constants ids, round by round up to
// maxDepth, every compound of a function symbol of the program over the
// members so far that holds a member of the previous round — so round d
// adds exactly the new terms of depth d — and returns the members.
func (g *grounder) functorClosure(ids []term.ID, maxDepth, budget int) ([]term.ID, error) {
	tt := g.tab.TermTable()
	var members idSet
	for _, id := range ids {
		members.add(id)
	}
	prev := 0 // ids[prev:] are the previous round's
	for d := 1; d <= maxDepth; d++ {
		n := len(ids)
		for _, f := range g.functors {
			args := make([]term.ID, f.Arity)
			var build func(i int, usedPrev bool) error
			build = func(i int, usedPrev bool) error {
				if i == f.Arity {
					if !usedPrev {
						return nil
					}
					id := tt.InternCompound(f.Name, args)
					if members.has(id) {
						return nil
					}
					members.add(id)
					ids = append(ids, id)
					if budget > 0 && len(ids) > budget {
						return &ErrBudget{"universe", budget}
					}
					return nil
				}
				for k := 0; k < n; k++ {
					args[i] = ids[k]
					if err := build(i+1, usedPrev || k >= prev); err != nil {
						return err
					}
				}
				return nil
			}
			if err := build(0, false); err != nil {
				return nil, err
			}
		}
		if len(ids) == n {
			break
		}
		prev = n
	}
	return ids, nil
}
