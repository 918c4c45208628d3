// Test-only accessors: methods the tests inspect state with that no
// production code calls.

package ground

import "repro/internal/ast"

// Incremental reports whether the program retains usable smart-grounding
// state for in-place fact maintenance.
func (gp *Program) Incremental() bool { return gp.inc != nil && !gp.inc.poisoned }

// Universe computes the Herbrand universe of the program: all constants
// plus compound terms nested up to maxDepth. If maxDepth < 0 it defaults to
// the maximum term depth occurring in the program, so every term written in
// the program is constructible but no deeper ones. If the program uses
// variables but has no constants, the conventional fresh constant "u0" is
// added to keep the universe non-empty. A positive budget caps the universe
// size.
func Universe(p *ast.OrderedProgram, maxDepth int, budget int) ([]ast.Term, error) {
	all, _, err := universe(p, maxDepth, budget)
	return all, err
}

// rules decodes every published instance, in order.
func (g *Program) rules() []Rule {
	ins := g.Rules
	out := make([]Rule, ins.Len())
	for i := range out {
		out[i] = ins.Rule(i)
	}
	return out
}
