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

// universe is Universe that also reports whether the program has no
// constants of its own (the universe is then empty or the u0 fallback), so
// the grounder need not collect the constants a second time to find out.
func universe(p *ast.OrderedProgram, maxDepth int, budget int) (all []ast.Term, noConsts bool, err error) {
	if maxDepth < 0 {
		maxDepth = programTermDepth(p)
	}
	base := p.Constants()
	noConsts = len(base) == 0
	if noConsts && programHasVars(p) {
		base = []ast.Term{ast.Sym("u0")}
	}
	all = append([]ast.Term(nil), base...)
	functors := p.Functors()
	if maxDepth < 1 || len(functors) == 0 {
		return all, noConsts, checkBudget(all, budget)
	}
	// Dedup members by interned id instead of canonical text. members holds
	// ids of universe members only — a term interned merely as a subterm of
	// a deeper base constant is not in it, so it can still be added when the
	// depth rounds construct it.
	dedup := term.NewTable()
	members := make(map[term.ID]bool, len(all))
	for _, t := range all {
		members[dedup.Intern(t)] = true
	}
	grown := false
	for d := 1; d <= maxDepth && len(functors) > 0; d++ {
		var next []ast.Term
		for _, f := range functors {
			args := make([]ast.Term, f.Arity)
			// Enumerate argument tuples from `all`, requiring at least one
			// argument from `prev` (depth d-1) so the compound has depth d.
			var build func(i int, usedPrev bool) error
			build = func(i int, usedPrev bool) error {
				if i == f.Arity {
					if !usedPrev {
						return nil
					}
					c := ast.Compound{Functor: f.Name, Args: append([]ast.Term(nil), args...)}
					id := dedup.Intern(c)
					if members[id] {
						return nil
					}
					members[id] = true
					next = append(next, c)
					if budget > 0 && len(members) > budget {
						return &ErrBudget{"universe", budget}
					}
					return nil
				}
				for _, t := range all {
					args[i] = t
					if err := build(i+1, usedPrev || ast.TermDepth(t) == d-1); err != nil {
						return err
					}
				}
				return nil
			}
			if err := build(0, false); err != nil {
				return nil, false, err
			}
		}
		if len(next) == 0 {
			break
		}
		all = append(all, next...)
		grown = true
	}
	if grown {
		ast.SortTerms(all) // base came sorted from Constants
	}
	return all, noConsts, checkBudget(all, budget)
}

// checkBudget fails a universe larger than a positive budget.
func checkBudget(all []ast.Term, budget int) error {
	if budget > 0 && len(all) > budget {
		return &ErrBudget{"universe", budget}
	}
	return nil
}

func programTermDepth(p *ast.OrderedProgram) int {
	max := 0
	upd := func(t ast.Term) {
		if d := ast.TermDepth(t); d > max {
			max = d
		}
	}
	for _, c := range p.Components {
		for _, r := range c.Rules {
			for _, t := range r.Head.Atom.Args {
				upd(t)
			}
			for _, l := range r.Body {
				for _, t := range l.Atom.Args {
					upd(t)
				}
			}
		}
	}
	return max
}

func programHasVars(p *ast.OrderedProgram) bool {
	for _, c := range p.Components {
		for _, r := range c.Rules {
			if len(r.Vars()) > 0 {
				return true
			}
		}
	}
	return false
}
