package eval_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/oracle/naive"
	"repro/internal/parser"
)

// fig1 is the ordered program P1 of Figure 1: the penguin does not fly in
// C1 because C1's rules overrule C2's.
const fig1 = `
module c2 {
  bird(penguin).
  bird(pigeon).
  fly(X) :- bird(X).
  -ground_animal(X) :- bird(X).
}
module c1 extends c2 {
  ground_animal(penguin).
  -fly(X) :- ground_animal(X).
}
`

func view(t *testing.T, src, comp string, mode ground.Mode) *eval.View {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	opts := ground.DefaultOptions()
	opts.Mode = mode
	g, err := ground.GroundCtx(context.Background(), prog, opts)
	if err != nil {
		t.Fatalf("ground: %v", err)
	}
	v, err := naive.NewViewByName(g, comp)
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	return v
}

func modelString(m *interp.Interp) string {
	lits := m.Literals()
	parts := make([]string, len(lits))
	for i, l := range lits {
		parts[i] = l.String()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

func TestFig1LeastModelInC1(t *testing.T) {
	for _, mode := range []ground.Mode{ground.ModeSmart, ground.ModeFull} {
		v := view(t, fig1, "c1", mode)
		m, err := v.LeastModelCtx(context.Background())
		if err != nil {
			t.Fatalf("mode %v: least model: %v", mode, err)
		}
		// Example 2/3: I1 is a model for P1 in C1 and it is the least one:
		// penguin does not fly, pigeon flies.
		want := "{-fly(penguin), -ground_animal(pigeon), bird(penguin), bird(pigeon), fly(pigeon), ground_animal(penguin)}"
		if got := modelString(m); got != want {
			t.Errorf("mode %v: least model = %s, want %s", mode, got, want)
		}
		if !v.IsModel(m) {
			_, why := v.ModelViolation(m)
			t.Errorf("mode %v: least model rejected by IsModel: %s", mode, why)
		}
		if !v.IsAssumptionFree(m) {
			t.Errorf("mode %v: least model not assumption free", mode)
		}
		if !naive.IsAssumptionFreeDirect(v, m) {
			t.Errorf("mode %v: least model not assumption free (direct check)", mode)
		}
		ref, err := naive.LeastModelNaiveCtx(context.Background(), v)
		if err != nil {
			t.Fatalf("mode %v: naive: %v", mode, err)
		}
		if !ref.Equal(m) {
			t.Errorf("mode %v: naive %s != semi-naive %s", mode, modelString(ref), modelString(m))
		}
	}
}

func TestFig1FlattenedDefeats(t *testing.T) {
	// Example 2's P̂1: all rules of P1 in a single component. The applied
	// fact ground_animal(penguin) and the applicable rule
	// -ground_animal(penguin) :- bird(penguin) defeat each other, so the
	// least model leaves the penguin's status undefined (Example 3's M̂1).
	flat := `
bird(penguin).
bird(pigeon).
fly(X) :- bird(X).
-ground_animal(X) :- bird(X).
ground_animal(penguin).
-fly(X) :- ground_animal(X).
`
	for _, mode := range []ground.Mode{ground.ModeSmart, ground.ModeFull} {
		v := view(t, flat, "main", mode)
		m, err := v.LeastModelCtx(context.Background())
		if err != nil {
			t.Fatalf("least model: %v", err)
		}
		want := "{-ground_animal(pigeon), bird(penguin), bird(pigeon), fly(pigeon)}"
		if got := modelString(m); got != want {
			t.Errorf("mode %v: least model = %s, want %s", mode, got, want)
		}
		if !v.IsAssumptionFree(m) {
			t.Errorf("mode %v: flattened least model not assumption free", mode)
		}
	}
}

func TestExample3Models(t *testing.T) {
	// P3 = { a :- b.  -a :- b. } in one component C. The paper lists as
	// models: {b}... no — {-b}? It lists (b)... Models per the paper:
	// {-b}, {a,-b}? The stated family is {b}? See Example 3: models are
	// {b}-complement free... The paper states the models are:
	// (b), (-b), (a,-b), (-a,-b) and () — wait, it lists (b), (7b),
	// (a,7b), (7a,7b) and (); we verify exactly that family.
	src := `
a :- b.
-a :- b.
`
	v := view(t, src, "main", ground.ModeFull)
	tab := v.G.Tab
	var aID, bID interp.AtomID
	for i := 0; i < tab.Len(); i++ {
		switch tab.Atom(interp.AtomID(i)).Pred {
		case "a":
			aID = interp.AtomID(i)
		case "b":
			bID = interp.AtomID(i)
		}
	}
	type tc struct {
		name  string
		lits  []interp.Lit
		model bool
	}
	mk := func(id interp.AtomID, neg bool) interp.Lit { return interp.MkLit(id, neg) }
	cases := []tc{
		{"{}", nil, true},
		{"{b}", []interp.Lit{mk(bID, false)}, true},
		{"{-b}", []interp.Lit{mk(bID, true)}, true},
		{"{a,-b}", []interp.Lit{mk(aID, false), mk(bID, true)}, true},
		{"{-a,-b}", []interp.Lit{mk(aID, true), mk(bID, true)}, true},
		{"{a}", []interp.Lit{mk(aID, false)}, false},
		{"{-a}", []interp.Lit{mk(aID, true)}, false},
		{"{a,b}", []interp.Lit{mk(aID, false), mk(bID, false)}, false},
		{"{-a,b}", []interp.Lit{mk(aID, true), mk(bID, false)}, false},
		{"{a,-a}", []interp.Lit{mk(aID, false), mk(aID, true)}, false},
	}
	for _, c := range cases {
		m := v.NewInterp()
		ok := true
		for _, l := range c.lits {
			if !m.AddLit(l) {
				ok = false
			}
		}
		got := ok && v.IsModel(m)
		if got != c.model {
			t.Errorf("IsModel(%s) = %v, want %v", c.name, got, c.model)
		}
	}
}

func TestExample5StableCandidates(t *testing.T) {
	// P5: C1 < C2; C2 = {a. b. c.}; C1 = {-a :- b,c.  -b :- a.  -b :- -b.}
	// Paper: {a,-b,c} and {-a,b,c} are stable; {c} is assumption-free but
	// not stable; the least model is {c}.
	src := `
module c2 {
  a. b. c.
}
module c1 extends c2 {
  -a :- b, c.
  -b :- a.
  -b :- -b.
}
`
	for _, mode := range []ground.Mode{ground.ModeSmart, ground.ModeFull} {
		v := view(t, src, "c1", mode)
		m, err := v.LeastModelCtx(context.Background())
		if err != nil {
			t.Fatalf("least: %v", err)
		}
		if got := modelString(m); got != "{c}" {
			t.Errorf("mode %v: least model = %s, want {c}", mode, got)
		}
		if !v.IsAssumptionFree(m) {
			t.Errorf("mode %v: {c} should be assumption free", mode)
		}

		lit := func(name string, neg bool) interp.Lit {
			for i := 0; i < v.G.Tab.Len(); i++ {
				if v.G.Tab.Atom(interp.AtomID(i)).Pred == name {
					return interp.MkLit(interp.AtomID(i), neg)
				}
			}
			t.Fatalf("atom %s not interned", name)
			return 0
		}
		m1 := v.NewInterp() // {a, -b, c}
		m1.AddLit(lit("a", false))
		m1.AddLit(lit("b", true))
		m1.AddLit(lit("c", false))
		if !v.IsAssumptionFree(m1) {
			t.Errorf("mode %v: {a,-b,c} should be an assumption-free model", mode)
		}
		m2 := v.NewInterp() // {-a, b, c}
		m2.AddLit(lit("a", true))
		m2.AddLit(lit("b", false))
		m2.AddLit(lit("c", false))
		if !v.IsAssumptionFree(m2) {
			t.Errorf("mode %v: {-a,b,c} should be an assumption-free model", mode)
		}
	}
}
