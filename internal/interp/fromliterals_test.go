package interp_test

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/oracle/parsetest"
)

func TestFromLiterals(t *testing.T) {
	atomOf := func(p string) ast.Atom { return ast.Atom{Pred: p} }
	tab := interp.NewTable()
	tab.Intern(atomOf("a"))
	in, err := parsetest.FromLiterals(tab, []ast.Literal{ast.Pos(atomOf("a"))})
	if err != nil || !in.HasLit(interp.MkLit(0, false)) {
		t.Errorf("FromLiterals: %v %v", in, err)
	}
	if _, err := parsetest.FromLiterals(tab, []ast.Literal{ast.Pos(atomOf("zzz"))}); err == nil {
		t.Error("unknown atom accepted")
	}
	if _, err := parsetest.FromLiterals(tab, []ast.Literal{ast.Pos(atomOf("a")), ast.Neg(atomOf("a"))}); err == nil {
		t.Error("inconsistent literal set accepted")
	}
}
