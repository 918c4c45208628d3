package negsem_test

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/oracle/negsem"
	"repro/internal/oracle/parsetest"
	"repro/internal/parser"
)

func semOf(t *testing.T, src string) *negsem.Semantics {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := ground.DefaultOptions()
	opts.Mode = ground.ModeFull
	g, err := ground.GroundCtx(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return negsem.New(g)
}

func interpOf(t *testing.T, s *negsem.Semantics, lits ...string) *interp.Interp {
	t.Helper()
	var ls []ast.Literal
	for _, x := range lits {
		l, err := parser.ParseLiteral(x)
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, l)
	}
	in, err := parsetest.FromLiterals(s.G.Tab, ls)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// Example 8's flying program under the direct semantics: the exception
// makes the grounded bird not fly.
func TestExceptionOverridesGeneral(t *testing.T) {
	s := semOf(t, `
fly(X) :- bird(X).
-fly(X) :- ground_animal(X).
bird(tweety).
ground_animal(tweety).
`)
	m := interpOf(t, s, "bird(tweety)", "ground_animal(tweety)", "-fly(tweety)")
	if !s.IsModel(m) {
		t.Error("exception model rejected")
	}
	// Leaving fly(tweety) undefined is NOT a model: the exception rule is
	// applied-able (its body is true) and negative rules are never
	// excused, so it forces -fly(tweety).
	m2 := interpOf(t, s, "bird(tweety)", "ground_animal(tweety)")
	if s.IsModel(m2) {
		t.Error("an applicable exception must force its conclusion")
	}
	// Claiming fly(tweety) while the applied exception contradicts it is
	// inconsistent as an interpretation only if -fly is also present; as
	// a model check, fly=T makes the exception rule violated.
	m3 := interpOf(t, s, "bird(tweety)", "ground_animal(tweety)", "fly(tweety)")
	if s.IsModel(m3) {
		t.Error("fly(tweety) = T should violate the applied exception rule")
	}
}

func TestFalseHeadNeedsAppliedException(t *testing.T) {
	s := semOf(t, `
p :- q.
-p :- r.
q.
`)
	// p false with the exception's body undefined: not excused.
	m := interpOf(t, s, "q", "-p")
	if s.IsModel(m) {
		t.Error("false head excused by a non-applied exception")
	}
	// p false with the exception applied: excused.
	m2 := interpOf(t, s, "q", "r", "-p")
	if !s.IsModel(m2) {
		t.Error("applied exception did not excuse the false head")
	}
	// p undefined with the exception non-blocked (r undefined): excused.
	m3 := interpOf(t, s, "q")
	if !s.IsModel(m3) {
		t.Error("undefined head not excused by a non-blocked exception")
	}
	// p undefined with the exception blocked (r false): not excused.
	m4 := interpOf(t, s, "q", "-r")
	if s.IsModel(m4) {
		t.Error("undefined head excused by a blocked exception")
	}
}

func TestNegativeRulesNeverExcused(t *testing.T) {
	s := semOf(t, `
-p :- q.
q.
`)
	m := interpOf(t, s, "q", "p")
	if s.IsModel(m) {
		t.Error("violated negative rule accepted")
	}
	m2 := interpOf(t, s, "q", "-p")
	if !s.IsModel(m2) {
		t.Error("satisfied negative rule rejected")
	}
}

func TestAssumptionSets(t *testing.T) {
	// p :- p has only circular support: {p} is a model but p is an
	// assumption.
	s := semOf(t, "p :- p.\n")
	m := interpOf(t, s, "p")
	if !s.IsModel(m) {
		t.Error("{p} should be a 3-valued model of p :- p")
	}
	if x := s.FindAssumptionSet(m); len(x) != 1 {
		t.Errorf("assumption set = %v, want {p}", x)
	}
	if s.IsAssumptionFree(m) {
		t.Error("{p} should not be assumption free")
	}
	empty := interpOf(t, s)
	if !s.IsAssumptionFree(empty) {
		t.Error("{} should be assumption free")
	}
}

func TestStableDirect(t *testing.T) {
	// colored example: the literal Example 9 program has a single stable
	// model under the direct semantics too (agreement with 3V is
	// property-tested in internal/transform).
	s := semOf(t, `
colored(X) :- color(X), -colored(Y), X != Y.
-colored(X) :- ugly_color(X).
color(red).
color(green).
color(brown).
ugly_color(brown).
`)
	ms, err := s.StableModels(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("stable models = %d, want 1", len(ms))
	}
	m := ms[0]
	check := func(lit string, want bool) {
		l, err := parser.ParseLiteral(lit)
		if err != nil {
			t.Fatal(err)
		}
		id, ok := s.G.Tab.Lookup(l.Atom)
		if !ok {
			t.Fatalf("atom %s missing", l.Atom)
		}
		if got := m.HasLit(interp.MkLit(id, l.Neg)); got != want {
			t.Errorf("%s in stable model = %v, want %v", lit, got, want)
		}
	}
	check("colored(red)", true)
	check("colored(green)", true)
	check("-colored(brown)", true)
}
