package core

import (
	"math"
	"testing"

	"repro/internal/ast"
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
