// Package workload generates the programs and request streams the
// benchmark harness, the examples and cmd/olpload run: ancestor chains,
// win–move games over chains and cycles, and a Zipf sampler. The test
// suite's own generators (random programs, trees, inheritance hierarchies)
// live in internal/oracle/gen.
package workload

import (
	"fmt"

	"repro/internal/ast"
)

func atom(pred string, args ...ast.Term) ast.Atom { return ast.Atom{Pred: pred, Args: args} }
func sym(s string) ast.Term                       { return ast.Sym(s) }

// AncestorChain returns the classic transitive-closure program over a
// parent chain c0 -> c1 -> ... -> c(n-1): parent facts plus
//
//	anc(X,Y) :- parent(X,Y).
//	anc(X,Y) :- parent(X,Z), anc(Z,Y).
func AncestorChain(n int) []*ast.Rule {
	rules := ancestorRules()
	for i := 0; i+1 < n; i++ {
		rules = append(rules, ast.Fact(ast.Pos(atom("parent", sym(constName(i)), sym(constName(i+1))))))
	}
	return rules
}

func ancestorRules() []*ast.Rule {
	x, y, z := ast.Var{Name: "X"}, ast.Var{Name: "Y"}, ast.Var{Name: "Z"}
	return []*ast.Rule{
		{Head: ast.Pos(atom("anc", x, y)), Body: []ast.Literal{ast.Pos(atom("parent", x, y))}},
		{Head: ast.Pos(atom("anc", x, y)), Body: []ast.Literal{
			ast.Pos(atom("parent", x, z)), ast.Pos(atom("anc", z, y))}},
	}
}

func constName(i int) string { return fmt.Sprintf("c%d", i) }

// WinMove returns the win–move game over the given directed edges:
//
//	win(X) :- move(X,Y), -win(Y).
//
// A position is winning when it has a move to a losing one. On cycles the
// well-founded model leaves positions undefined and stable models pick
// orientations.
func WinMove(edges [][2]int) []*ast.Rule {
	x, y := ast.Var{Name: "X"}, ast.Var{Name: "Y"}
	rules := []*ast.Rule{
		{Head: ast.Pos(atom("win", x)), Body: []ast.Literal{
			ast.Pos(atom("move", x, y)), ast.Neg(atom("win", y))}},
	}
	for _, e := range edges {
		rules = append(rules, ast.Fact(ast.Pos(atom("move", sym(constName(e[0])), sym(constName(e[1]))))))
	}
	return rules
}

// ChainEdges returns the edges of a simple path of n nodes.
func ChainEdges(n int) [][2]int {
	var out [][2]int
	for i := 0; i+1 < n; i++ {
		out = append(out, [2]int{i, i + 1})
	}
	return out
}

// CycleEdges returns the edges of a directed cycle of n nodes.
func CycleEdges(n int) [][2]int {
	out := ChainEdges(n)
	if n > 1 {
		out = append(out, [2]int{n - 1, 0})
	}
	return out
}
