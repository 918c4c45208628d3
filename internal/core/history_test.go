package core

import (
	"math"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// readsBack agrees with the parser: a name reads back exactly when p(name)
// parses as p over the symbol (or, for a variable, the variable) of that
// name. exactKey is the fact's text exactly then, and otherwise keys
// apart every pair of facts that render alike.
func TestReadsBackMatchesParser(t *testing.T) {
	names := []string{"a", "c0", "a_b", "aB9", "é", "éa", "ñame", "X", "X1", "_", "_x", "Ça", "1", "1a", "", "a b", "a-b",
		"g(x)", "a,b", "not", "mod", "module", "a.", "日本", "a ", "\xff", "a\xff", "%", "X, Y"}
	for _, name := range names {
		l, err := parser.ParseLiteral("p(" + name + ")")
		sym := err == nil && len(l.Atom.Args) == 1 && l.Atom.Args[0].Equal(ast.Sym(name))
		if got := readsBack(name, identLower); got != sym {
			t.Errorf("readsBack(%q, name) = %v, the parser reads it back as the symbol: %v", name, got, sym)
		}
		v := err == nil && len(l.Atom.Args) == 1 && l.Atom.Args[0].Equal(ast.Var{Name: name})
		if got := readsBack(name, identUpper); got != v {
			t.Errorf("readsBack(%q, variable) = %v, the parser reads it back as the variable: %v", name, got, v)
		}
	}
	fact := func(ts ...ast.Term) ast.Literal { return ast.Pos(ast.Atom{Pred: "p", Args: ts}) }
	alike := [][2]ast.Literal{
		{fact(ast.Int(1)), fact(ast.Sym("1"))},
		{fact(ast.Compound{Functor: "g", Args: []ast.Term{ast.Sym("x")}}), fact(ast.Sym("g(x)"))},
		{fact(ast.Sym("a"), ast.Sym("b")), fact(ast.Sym("a, b"))},
		{fact(ast.Int(math.MinInt64)), fact(ast.Sym("-9223372036854775808"))},
	}
	for _, p := range alike {
		if p[0].String() != p[1].String() || exactKey(p[0]) == exactKey(p[1]) {
			t.Errorf("%#v and %#v: want one rendering and two keys, got keys %q and %q", p[0], p[1], exactKey(p[0]), exactKey(p[1]))
		}
	}
	if k := exactKey(fact(ast.Sym("c0"))); k != "p(c0)" {
		t.Errorf("a parsed fact keys as %q, want its text", k)
	}
}
