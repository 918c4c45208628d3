package stable_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/stable"
)

func view(t *testing.T, src, comp string) *eval.View {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := ground.Ground(prog, ground.DefaultOptions())
	if err != nil {
		t.Fatalf("ground: %v", err)
	}
	v, err := eval.NewViewByName(g, comp)
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	return v
}

func modelStrings(ms []*interp.Interp) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	sort.Strings(out)
	return out
}

// example5Src is Example 5's program P5.
const example5Src = `
module c2 { a. b. c. }
module c1 extends c2 {
  -a :- b, c.
  -b :- a.
  -b :- -b.
}
`

// Example 5: P5 has exactly two stable models in C1, {a,-b,c} and
// {-a,b,c}, while {c} is assumption-free but not stable.
func TestExample5Stable(t *testing.T) {
	v := view(t, example5Src, "c1")
	af, err := stable.AssumptionFreeModelsCtx(context.Background(), v, stable.Options{})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	gotAF := modelStrings(af)
	wantAF := []string{"{-a, b, c}", "{a, -b, c}", "{c}"}
	if strings.Join(gotAF, ";") != strings.Join(wantAF, ";") {
		t.Errorf("assumption-free models = %v, want %v", gotAF, wantAF)
	}
	st, err := stable.StableModelsCtx(context.Background(), v, stable.Options{})
	if err != nil {
		t.Fatalf("stable: %v", err)
	}
	got := modelStrings(st)
	want := []string{"{-a, b, c}", "{a, -b, c}"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("stable models = %v, want %v", got, want)
	}
}

// Example 4: P4 = { a :- b. } has the empty set as its only
// assumption-free model; adding a CWA component makes {-a,-b} the only
// assumption-free (hence stable) model.
func TestExample4(t *testing.T) {
	v := view(t, "a :- b.\n", "main")
	af, err := stable.AssumptionFreeModelsCtx(context.Background(), v, stable.Options{})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if got := modelStrings(af); strings.Join(got, ";") != "{}" {
		t.Errorf("assumption-free models = %v, want [{}]", got)
	}

	src := `
module c2 { -a. -b. }
module c1 extends c2 { a :- b. }
`
	v2 := view(t, src, "c1")
	af2, err := stable.AssumptionFreeModelsCtx(context.Background(), v2, stable.Options{})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	// The paper: {-a,-b} becomes "the only assumption-free model" once the
	// CWA component is added ({} is no longer a model: the applicable fact
	// -b is neither overruled nor defeated, violating condition (b)).
	if got := modelStrings(af2); strings.Join(got, ";") != "{-a, -b}" {
		t.Errorf("assumption-free models = %v, want [{-a, -b}]", got)
	}
	st2, err := stable.StableModelsCtx(context.Background(), v2, stable.Options{})
	if err != nil {
		t.Fatalf("stable: %v", err)
	}
	if got := modelStrings(st2); strings.Join(got, ";") != "{-a, -b}" {
		t.Errorf("stable models = %v, want [{-a, -b}]", got)
	}
}

// Theorem 1(b) on Example 3's program: the least model equals the
// intersection of all models.
func TestLeastIsIntersectionOfAllModels(t *testing.T) {
	v := view(t, "a :- b.\n-a :- b.\n", "main")
	least, err := v.LeastModel()
	if err != nil {
		t.Fatalf("least: %v", err)
	}
	all, err := stable.AllModels(v, 0)
	if err != nil {
		t.Fatalf("all models: %v", err)
	}
	if len(all) == 0 {
		t.Fatal("no models found")
	}
	inter := stable.Intersection(all)
	if !inter.Equal(least) {
		t.Errorf("intersection %s != least model %s", inter, least)
	}
}

// Proposition 2 on Figure 1's program: every model extends to an
// exhaustive model.
func TestExtendToExhaustive(t *testing.T) {
	src := `
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
	v := view(t, src, "c1")
	least, err := v.LeastModel()
	if err != nil {
		t.Fatalf("least: %v", err)
	}
	ex, err := stable.ExtendToExhaustive(v, least, 0)
	if err != nil {
		t.Fatalf("extend: %v", err)
	}
	if !least.SubsetOf(ex) {
		t.Errorf("extension %s does not contain %s", ex, least)
	}
	isEx, err := stable.IsExhaustive(v, ex, 0)
	if err != nil {
		t.Fatalf("isExhaustive: %v", err)
	}
	if !isEx {
		t.Errorf("extension %s is not exhaustive", ex)
	}
}
