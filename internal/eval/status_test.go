package eval_test

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/oracle/naive"
	"repro/internal/parser"
)

// findRule locates a visible ground rule by its rendered text.
func findRule(t *testing.T, v *eval.View, text string) int {
	t.Helper()
	for r := 0; r < v.NumRules(); r++ {
		if v.G.RuleString(v.GroundRule(r)) == text {
			return r
		}
	}
	t.Fatalf("ground rule %q not found", text)
	return -1
}

func interpFrom(t *testing.T, v *eval.View, lits ...string) *interp.Interp {
	t.Helper()
	in := v.NewInterp()
	for _, s := range lits {
		l, err := parser.ParseLiteral(s)
		if err != nil {
			t.Fatal(err)
		}
		id, ok := v.G.Tab.Lookup(l.Atom)
		if !ok {
			t.Fatalf("atom %s not interned", l.Atom)
		}
		if !in.AddLit(interp.MkLit(id, l.Neg)) {
			t.Fatalf("inconsistent literal %s", s)
		}
	}
	return in
}

// TestExample2Statuses replays the paper's Example 2 verbatim: the rule
// statuses of P1's ground instances w.r.t. the total interpretation I1 in
// component C1.
func TestExample2Statuses(t *testing.T) {
	v := view(t, fig1, "c1", ground.ModeFull)
	i1 := interpFrom(t, v,
		"bird(pigeon)", "bird(penguin)",
		"ground_animal(penguin)", "-ground_animal(pigeon)",
		"fly(pigeon)", "-fly(penguin)")

	// "The ground rule fly(penguin) :- bird(penguin) is applicable but it
	// is overruled by the applied ground rule
	// -fly(penguin) :- ground_animal(penguin)."
	r1 := findRule(t, v, "fly(penguin) :- bird(penguin).")
	st := v.Statuses(r1, i1)
	if !st.Applicable || st.Applied || st.Blocked || !st.Overruled {
		t.Errorf("fly(penguin) rule statuses = %+v; want applicable, overruled", st)
	}
	r2 := findRule(t, v, "-fly(penguin) :- ground_animal(penguin).")
	if !v.Applied(r2, i1) {
		t.Error("-fly(penguin) rule should be applied")
	}
	if !v.OverruledByApplied(r1, i1) {
		t.Error("fly(penguin) rule should be overruled by an applied rule")
	}

	// "The ground rule -fly(pigeon) :- ground_animal(pigeon) is both
	// blocked and non-applicable."
	r3 := findRule(t, v, "-fly(pigeon) :- ground_animal(pigeon).")
	st3 := v.Statuses(r3, i1)
	if !st3.Blocked || st3.Applicable {
		t.Errorf("-fly(pigeon) rule statuses = %+v; want blocked, non-applicable", st3)
	}

	// I1 is a total model for P1 in C1 (Example 3).
	if !i1.Total() {
		t.Error("I1 should be total")
	}
	if !v.IsModel(i1) {
		_, why := v.ModelViolation(i1)
		t.Errorf("I1 rejected: %s", why)
	}
}

// TestExample2Flattened replays the single-component P̂1 part of Example 2:
// with all rules in one component, overruling turns into mutual defeat.
func TestExample2Flattened(t *testing.T) {
	flat := `
bird(penguin). bird(pigeon).
fly(X) :- bird(X).
-ground_animal(X) :- bird(X).
ground_animal(penguin).
-fly(X) :- ground_animal(X).
`
	v := view(t, flat, "main", ground.ModeFull)
	i1 := interpFrom(t, v,
		"bird(pigeon)", "bird(penguin)",
		"ground_animal(penguin)", "-ground_animal(pigeon)",
		"fly(pigeon)", "-fly(penguin)")

	// "the applicable rule fly(penguin) :- bird(penguin) is defeated by
	// the applied rule -fly(penguin) :- ground_animal(penguin)."
	r1 := findRule(t, v, "fly(penguin) :- bird(penguin).")
	st1 := v.Statuses(r1, i1)
	if !st1.Applicable || !st1.Defeated || st1.Overruled {
		t.Errorf("flattened fly(penguin) statuses = %+v; want applicable, defeated, not overruled", st1)
	}
	// "Also the applied rule ground_animal(penguin) is defeated by the
	// applicable rule -ground_animal(penguin) :- bird(penguin)."
	r2 := findRule(t, v, "ground_animal(penguin).")
	st2 := v.Statuses(r2, i1)
	if !st2.Applied || !st2.Defeated {
		t.Errorf("flattened ground_animal(penguin) statuses = %+v; want applied, defeated", st2)
	}
	// I1 is NOT a model of the flattened program in its single component
	// (Example 3): M̂1 leaves the penguin undefined instead.
	if v.IsModel(i1) {
		t.Error("I1 should not be a model of the flattened P1")
	}
	m1hat := interpFrom(t, v,
		"bird(pigeon)", "bird(penguin)", "fly(pigeon)", "-ground_animal(pigeon)")
	if !v.IsModel(m1hat) {
		_, why := v.ModelViolation(m1hat)
		t.Errorf("M̂1 rejected: %s", why)
	}
	if !v.IsAssumptionFree(m1hat) {
		t.Error("M̂1 should be assumption free")
	}
}

// TestTEnabledDirect checks the enabled-version operator on a hand-worked
// case.
func TestTEnabledDirect(t *testing.T) {
	v := view(t, "a.\nb :- a.\nc :- d.\n", "main", ground.ModeFull)
	m := interpFrom(t, v, "a", "b", "c")
	// Applied rules w.r.t. m: a., b :- a (c :- d is not applicable).
	out := v.TEnabled(m)
	want := interpFrom(t, v, "a", "b")
	if !out.Equal(want) {
		t.Errorf("TEnabled = %s, want %s", out, want)
	}
	// Hence m is not assumption free (c has no support), but {a,b} is.
	if v.IsAssumptionFree(m) {
		t.Error("{a,b,c} should not be assumption free")
	}
	if !v.IsAssumptionFree(want) {
		t.Error("{a,b} should be assumption free")
	}
	// FindAssumptionSet pinpoints c.
	x := naive.FindAssumptionSet(v, m)
	if len(x) != 1 || v.G.Tab.LitString(x[0]) != "c" {
		got := make([]string, len(x))
		for i, l := range x {
			got[i] = v.G.Tab.LitString(l)
		}
		t.Errorf("assumption set = %v, want [c]", got)
	}
}

// TestVOnceBehaviour exercises single V steps.
func TestVOnceBehaviour(t *testing.T) {
	v := view(t, "a.\nb :- a.\n", "main", ground.ModeFull)
	s0 := v.NewInterp()
	s1, err := naive.VOnce(v, s0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.String() != "{a}" {
		t.Errorf("V(∅) = %s", s1)
	}
	s2, err := naive.VOnce(v, s1)
	if err != nil {
		t.Fatal(err)
	}
	if s2.String() != "{a, b}" {
		t.Errorf("V(V(∅)) = %s", s2)
	}
	s3, err := naive.VOnce(v, s2)
	if err != nil {
		t.Fatal(err)
	}
	if !s3.Equal(s2) {
		t.Error("fixpoint not reached")
	}
}

// TestDuplicateBodyLiterals: the semi-naive counters must track body
// occurrences, not distinct literals — p(a, a) instances can repeat a
// literal in the body.
func TestDuplicateBodyLiterals(t *testing.T) {
	src := `
q(a).
p(X, Y) :- q(X), q(Y).
r :- p(a, a), p(a, a).
`
	for _, mode := range []ground.Mode{ground.ModeSmart, ground.ModeFull} {
		v := view(t, src, "main", mode)
		m, err := v.LeastModelCtx(context.Background())
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		ref, err := naive.LeastModelNaiveCtx(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Equal(ref) {
			t.Fatalf("mode %v: semi-naive %s != naive %s", mode, m, ref)
		}
		for _, want := range []string{"q(a)", "p(a, a)", "r"} {
			l, err := parser.ParseLiteral(want)
			if err != nil {
				t.Fatal(err)
			}
			id, ok := v.G.Tab.Lookup(l.Atom)
			if !ok || !m.HasLit(interp.MkLit(id, false)) {
				t.Errorf("mode %v: %s missing from least model %s", mode, want, m)
			}
		}
	}
}

// TestSelfBlockingRule: a rule whose body contains the complement of its
// own head (found by the random tests to be a useful degenerate case).
func TestSelfBlockingRule(t *testing.T) {
	v := view(t, "a :- -a.\n", "main", ground.ModeFull)
	m, err := v.LeastModelCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Errorf("least model = %s, want {}", m)
	}
	// {a} is not a model: condition (b)? a defined... condition (a): no
	// rules with head -a. Both Def 3 conditions hold for {a}: rules with
	// head -a: none; applicable rules on undefined atoms: none (a is
	// defined). So {a} IS a model — but not assumption free (the rule is
	// blocked by a itself, so nothing supports a).
	in := interpFrom(t, v, "a")
	if !v.IsModel(in) {
		t.Error("{a} should be a (non-assumption-free) model")
	}
	if v.IsAssumptionFree(in) {
		t.Error("{a} should not be assumption free")
	}
}

// TestFixpointStats sanity-checks the run counters.
func TestFixpointStats(t *testing.T) {
	v := view(t, fig1, "c1", ground.ModeFull)
	m, st, err := leastModelStats(t, v)
	if err != nil {
		t.Fatal(err)
	}
	if st.Derived != m.Len() {
		t.Errorf("Derived = %d, model size = %d", st.Derived, m.Len())
	}
	if st.Fired < st.Derived {
		t.Errorf("Fired = %d < Derived = %d", st.Fired, st.Derived)
	}
	if st.BlockEvents == 0 {
		t.Error("expected some block events on Fig. 1")
	}
	// The stats variant computes the same model.
	plain, err := v.LeastModelCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(m) {
		t.Error("stats variant changed the model")
	}
}

// TestFunctionSymbols: depth-bounded Herbrand universes make Peano-style
// programs evaluable end to end.
func TestFunctionSymbols(t *testing.T) {
	src := "num(z).\nnum(s(X)) :- num(X).\n"
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := ground.DefaultOptions()
	opts.MaxDepth = 3
	g, err := ground.GroundCtx(context.Background(), prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	v := eval.NewView(g, 0)
	m, err := v.LeastModelCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Substitutions range over the depth-3 universe {z, s(z), s²(z),
	// s³(z)}; head terms may add one constructor on top, so the deepest
	// derivable number is s⁴(z).
	for _, want := range []string{
		"num(z)", "num(s(z))", "num(s(s(z)))", "num(s(s(s(z))))", "num(s(s(s(s(z)))))",
	} {
		l, err := parser.ParseLiteral(want)
		if err != nil {
			t.Fatal(err)
		}
		id, ok := g.Tab.Lookup(l.Atom)
		if !ok || !m.HasLit(interp.MkLit(id, false)) {
			t.Errorf("%s missing from least model %s", want, m)
		}
	}
	// Nothing deeper is constructed: s⁴(z) is not in the universe, so no
	// instance has it in a body.
	deep, err := parser.ParseLiteral("num(s(s(s(s(s(z))))))")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Tab.Lookup(deep.Atom); ok {
		t.Error("depth bound exceeded")
	}
}

// TestVOnceInconsistentInput: applying V to an interpretation that enables
// complementary firings is reported, not silently mangled.
func TestVOnceInconsistentInput(t *testing.T) {
	v := view(t, "a :- b.\n-a :- c.\n", "main", ground.ModeFull)
	in := interpFrom(t, v, "b", "c", "-a")
	// With b and c true and rules in one component, the rules defeat each
	// other (both non-blocked)... b's rule is blocked? blocked needs -b or
	// -c in I; neither, so both defeat each other and V derives nothing —
	// no inconsistency arises here.
	out, err := naive.VOnce(v, in)
	if err != nil {
		t.Fatalf("VOnce: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("mutual defeat should derive nothing, got %s", out)
	}
}
