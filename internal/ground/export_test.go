// Test-only accessors: methods the tests inspect state with that no
// production code calls.

package ground

import (
	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/storage"
)

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
// It is the universe a grounding of p computes.
func Universe(p *ast.OrderedProgram, maxDepth int, budget int) ([]ast.Term, error) {
	g := &grounder{src: p, tab: interp.NewTable(), f: &storage.Frame{}}
	b := g.tab.TermTable().Batch()
	g.compileSource(b)
	b.Done()
	err := g.universe(maxDepth, budget)
	return g.uni, err
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
