package stable_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/oracle/gen"
	"repro/internal/oracle/parsetest"
	"repro/internal/stable"
)

func TestReasonExample5(t *testing.T) {
	v := view(t, `
module c2 { a. b. c. }
module c1 extends c2 { -a :- b, c. -b :- a. -b :- -b. }
`, "c1")
	r, err := stable.ReasonCtx(context.Background(), v, stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumModels != 2 {
		t.Fatalf("models = %d", r.NumModels)
	}
	lit := func(name string, neg bool) interp.Lit {
		l := parsetest.MustParseLiteral(name)
		id, ok := v.G.Tab.Lookup(l.Atom)
		if !ok {
			t.Fatalf("atom %s missing", name)
		}
		return interp.MkLit(id, neg != l.Neg)
	}
	// c is in both stable models; a and b are contested.
	if !r.HoldsCautiously(lit("c", false)) {
		t.Error("c should hold cautiously")
	}
	if r.HoldsCautiously(lit("a", false)) || r.HoldsCautiously(lit("b", false)) {
		t.Error("contested literal holds cautiously")
	}
	// Both a and -a hold bravely (in different models).
	if !r.HoldsBravely(lit("a", false)) || !r.HoldsBravely(lit("a", true)) {
		t.Error("a / -a should both hold bravely")
	}
	if !r.HoldsBravely(lit("b", false)) || !r.HoldsBravely(lit("b", true)) {
		t.Error("b / -b should both hold bravely")
	}
}

// TestPruneIsPureOptimisation: the doomed-branch prune never changes the
// assumption-free family, only the number of leaves visited.
func TestPruneIsPureOptimisation(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.RandomOrdered(rng, 1+rng.Intn(3), gen.RandomConfig{
			Atoms: 4 + rng.Intn(2), Rules: 8, MaxBody: 2, NegHeads: true, NegBody: true,
		})
		g, err := ground.GroundCtx(context.Background(), p, ground.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for ci := range p.Components {
			v := eval.NewView(g, ci)
			with, err := stable.AssumptionFreeModelsCtx(context.Background(), v, stable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			without, err := stable.AssumptionFreeModelsCtx(context.Background(), v, stable.Options{NoPrune: true})
			if err != nil {
				t.Fatal(err)
			}
			ws, os_ := modelStrings(with), modelStrings(without)
			if len(ws) != len(os_) {
				t.Fatalf("seed %d comp %d: prune changed af family size %d vs %d",
					seed, ci, len(ws), len(os_))
			}
			for i := range ws {
				if ws[i] != os_[i] {
					t.Fatalf("seed %d comp %d: prune changed af family: %v vs %v",
						seed, ci, ws, os_)
				}
			}
		}
	}
}

// TestReasonProperties: on random ordered programs, cautious ⊆ every
// stable model, every stable literal is brave, and least ⊆ cautious.
func TestReasonProperties(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.RandomOrdered(rng, 1+rng.Intn(2), gen.RandomConfig{
			Atoms: 4, Rules: 7, MaxBody: 2, NegHeads: true, NegBody: true,
		})
		g, err := ground.GroundCtx(context.Background(), p, ground.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for ci := range p.Components {
			v := eval.NewView(g, ci)
			r, err := stable.ReasonCtx(context.Background(), v, stable.Options{})
			if err != nil {
				t.Fatalf("seed %d comp %d: %v", seed, ci, err)
			}
			ms, err := stable.StableModelsCtx(context.Background(), v, stable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				if !r.Cautious.SubsetOf(m) {
					t.Fatalf("seed %d: cautious %s not in stable %s", seed, r.Cautious, m)
				}
				for _, l := range m.Lits() {
					if !r.HoldsBravely(l) {
						t.Fatalf("seed %d: stable literal %s not brave", seed, g.Tab.LitString(l))
					}
				}
			}
			least, err := v.LeastModelCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !least.SubsetOf(r.Cautious) {
				t.Fatalf("seed %d: least %s not cautious %s", seed, least, r.Cautious)
			}
		}
	}
}
