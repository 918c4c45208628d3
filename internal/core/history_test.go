package core

import (
	"math"
	"testing"

	"repro/internal/ast"
	"repro/internal/oracle/gen"
	"repro/internal/parser"
)

// Facts that differ only in the kind of a term render as two texts, so
// the history, which keys a fact by its text, keeps them as two facts;
// a parsed fact's key is the text it was parsed from.
func TestFactKeyIsText(t *testing.T) {
	fact := func(ts ...ast.Term) ast.Literal { return ast.Pos(ast.Atom{Pred: "p", Args: ts}) }
	alike := [][2]ast.Literal{
		{fact(ast.Int(1)), fact(ast.Sym("1"))},
		{fact(ast.Compound{Functor: "g", Args: []ast.Term{ast.Sym("x")}}), fact(ast.Sym("g(x)"))},
		{fact(ast.Sym("a"), ast.Sym("b")), fact(ast.Sym("a, b"))},
		{fact(ast.Int(math.MinInt64)), fact(ast.Sym("-9223372036854775808"))},
	}
	src := ast.SingleComponent("main", nil)
	for _, p := range alike {
		h := replay(src, []factEvent{{lit: p[0]}, {lit: p[1]}})
		if p[0].String() == p[1].String() || len(h.facts[0]) != 2 {
			t.Errorf("%#v and %#v: want two renderings and two keys, got %q and %q, %d keys", p[0], p[1], p[0].String(), p[1].String(), len(h.facts[0]))
		}
	}
	l, err := parser.ParseLiteral("p(c0)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := replay(src, []factEvent{{lit: l}}).facts[0]["p(c0)"]; !ok {
		t.Errorf("a parsed fact does not key as its text")
	}
}

// TestHistoryRulesAllocs: the effective rules of a component the history
// touched read the fact keys its index rendered, so their allocations do
// not grow with the source facts: on policySource(1000) after one retract
// from kb, as on policySource(2000), a few per call.
func TestHistoryRulesAllocs(t *testing.T) {
	var allocs []float64
	for _, kb := range []int{1000, 2000} {
		src, err := parser.ParseProgram(gen.PolicySource(kb))
		if err != nil {
			t.Fatal(err)
		}
		ci, _ := src.ComponentIndex("kb")
		l, err := parser.ParseLiteral("p(c7)")
		if err != nil {
			t.Fatal(err)
		}
		h := replay(src, []factEvent{{comp: ci, lit: l, retract: true}})
		if n := len(h.rules(ci)); n != kb-1 {
			t.Fatalf("kb=%d: %d effective rules, want %d", kb, n, kb-1)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() { h.rules(ci) }))
	}
	if allocs[0] > 2 || allocs[1] != allocs[0] {
		t.Errorf("rules allocates %v times at kb = 1000 and 2000, want at most 2, equal", allocs)
	}
}
