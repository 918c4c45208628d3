// Package gen generates the programs the test suite runs: seeded random
// propositional, Datalog and ordered programs for property-based and
// differential testing of the paper's theorems, complete ancestor trees,
// random edge sets, and ordered inheritance hierarchies with default
// properties and exceptions. Only tests and benchmark/ import it.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ast"
	"repro/internal/workload"
)

func atom(pred string, args ...ast.Term) ast.Atom { return ast.Atom{Pred: pred, Args: args} }
func sym(s string) ast.Term                       { return ast.Sym(s) }
func constName(i int) string                      { return fmt.Sprintf("c%d", i) }

// AncestorTree returns the ancestor program over a complete tree of the
// given fanout and depth (depth 0 is a single node).
func AncestorTree(fanout, depth int) []*ast.Rule {
	rules := workload.AncestorChain(0) // the two ancestor rules, no parent facts
	id := 0
	next := func() string { id++; return constName(id - 1) }
	var grow func(parent string, d int)
	root := next()
	grow = func(parent string, d int) {
		if d == 0 {
			return
		}
		for i := 0; i < fanout; i++ {
			child := next()
			rules = append(rules, ast.Fact(ast.Pos(atom("parent", sym(parent), sym(child)))))
			grow(child, d-1)
		}
	}
	grow(root, depth)
	return rules
}

// RandomEdges returns e distinct random directed edges (no self loops)
// over n nodes.
func RandomEdges(rng *rand.Rand, n, e int) [][2]int {
	seen := make(map[[2]int]bool)
	var out [][2]int
	for len(out) < e && len(out) < n*(n-1) {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		out = append(out, [2]int{a, b})
	}
	return out
}

// Inheritance builds an ordered knowledge base shaped like the paper's
// motivating examples: a linear isa-hierarchy of depth levels (level 0 the
// most specific), each level defining nprops default properties
//
//	level k:  p_i(X) :- member(X).     (for even i)
//	          -p_i(X) :- member(X).    (for odd i)
//
// with each level inverting the sign of property k mod nprops — an
// exception to the level above. Each level holds nmembers member facts.
// The program's least model in the bottom component exercises long
// overruling chains.
func Inheritance(depth, nprops, nmembers int) *ast.OrderedProgram {
	p := ast.NewOrderedProgram()
	x := ast.Var{Name: "X"}
	memberOffset := 0
	for lvl := depth - 1; lvl >= 0; lvl-- {
		c := &ast.Component{Name: fmt.Sprintf("lvl%d", lvl)}
		for i := 0; i < nprops; i++ {
			neg := (i+lvl)%2 == 1
			c.AddRule(&ast.Rule{
				Head: ast.Literal{Neg: neg, Atom: atom(fmt.Sprintf("p%d", i), x)},
				Body: []ast.Literal{ast.Pos(atom("member", x))},
			})
		}
		for m := 0; m < nmembers; m++ {
			c.AddRule(ast.Fact(ast.Pos(atom("member", sym(constName(memberOffset))))))
			memberOffset++
		}
		if err := p.AddComponent(c); err != nil {
			panic(err)
		}
	}
	for lvl := 0; lvl+1 < depth; lvl++ {
		if err := p.AddEdge(fmt.Sprintf("lvl%d", lvl), fmt.Sprintf("lvl%d", lvl+1)); err != nil {
			panic(err)
		}
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// PolicySource is the serving benchmark's write tenant: kb facts p(cI), a
// policy deriving ok/1 from each, and the exception component the writes
// land in. It mirrors benchmark/stream.go's policySource (that package is
// a main package and cannot be imported).
func PolicySource(kb int) string {
	var sb strings.Builder
	sb.WriteString("module kb {\n")
	for i := 0; i < kb; i++ {
		fmt.Fprintf(&sb, "p(c%d).\n", i)
	}
	sb.WriteString("}\nmodule policy extends kb { ok(X) :- p(X). }\nmodule exc extends policy {\n-ok(X) :- bad(X).\n}\n")
	return sb.String()
}

// ReadsSource is the serving benchmark's read tenant: a left-recursive
// path/2 over an n-edge chain, a right-recursive reach/2 over an m-hop
// chain, one exception each in the more specific component, and an
// unrelated module. It mirrors benchmark/stream.go's readsSource.
func ReadsSource(n, m int) string {
	var sb strings.Builder
	sb.WriteString("module base {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  edge(c%d, c%d).\n", i, i+1)
	}
	for i := 0; i < m; i++ {
		fmt.Fprintf(&sb, "  hop(h%d, h%d).\n", i, i+1)
	}
	sb.WriteString("  path(X, Y) :- edge(X, Y).\n  path(X, Z) :- path(X, Y), edge(Y, Z).\n")
	sb.WriteString("  reach(X, Y) :- hop(X, Y).\n  reach(X, Z) :- hop(X, Y), reach(Y, Z).\n}\n")
	fmt.Fprintf(&sb, "module exc extends base {\n  -path(X, c%d) :- edge(X, c%d).\n  -reach(X, h%d) :- hop(X, h%d).\n}\n",
		n/2, n/2, m/2, m/2)
	sb.WriteString("module items {\n")
	for j := 0; j < n/4; j++ {
		fmt.Fprintf(&sb, "  item(d%d).\n", j)
	}
	sb.WriteString("  ok(X) :- item(X).\n}\n")
	return sb.String()
}
