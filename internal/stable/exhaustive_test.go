package stable_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/oracle/gen"
	"repro/internal/oracle/naive"
)

// TestDefinition5Properties checks, on random small programs:
//   - every total model is exhaustive (the paper's remark after Def. 5);
//   - every model is contained in some exhaustive model (Prop. 2);
//   - exhaustive models are maximal among AllModels.
func TestDefinition5Properties(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.RandomOrdered(rng, 1+rng.Intn(2), gen.RandomConfig{
			Atoms: 3, Rules: 5, MaxBody: 2, NegHeads: true, NegBody: true,
		})
		opts := ground.DefaultOptions()
		opts.Mode = ground.ModeFull
		g, err := ground.GroundCtx(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if g.Tab.Len() > 5 {
			continue
		}
		for ci := range p.Components {
			v := eval.NewView(g, ci)
			all, err := naive.AllModels(v, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Maximal elements of the model family are the exhaustive ones.
			for _, m := range all {
				maximal := true
				for _, o := range all {
					if m.ProperSubsetOf(o) {
						maximal = false
						break
					}
				}
				isEx, err := naive.IsExhaustive(v, m, 0)
				if err != nil {
					t.Fatal(err)
				}
				if isEx != maximal {
					t.Fatalf("seed %d comp %d: IsExhaustive(%s)=%v but maximal=%v",
						seed, ci, m, isEx, maximal)
				}
				if m.Total() && !isEx {
					t.Fatalf("seed %d comp %d: total model %s not exhaustive", seed, ci, m)
				}
				ex, err := naive.ExtendToExhaustive(v, m, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !m.SubsetOf(ex) {
					t.Fatalf("seed %d comp %d: extension broke containment", seed, ci)
				}
			}
		}
	}
}

// TestNonTotalExhaustiveWitness reproduces the paper's remark after
// Definition 5 that a non-total exhaustive model may exist even when a
// total one does. Witness: C = { a :- -b.  b :- -a.  c :- a.  -c :- a. }
// in one component. {-a, b, c}? — the search below finds and verifies a
// witness program from the random family instead of trusting a hand
// calculation, then asserts at least one was found.
func TestNonTotalExhaustiveWitness(t *testing.T) {
	found := false
	for seed := int64(0); seed < 400 && !found; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.RandomOrdered(rng, 1+rng.Intn(2), gen.RandomConfig{
			Atoms: 3, Rules: 5, MaxBody: 2, NegHeads: true, NegBody: true,
		})
		opts := ground.DefaultOptions()
		opts.Mode = ground.ModeFull
		g, err := ground.GroundCtx(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if g.Tab.Len() > 4 {
			continue
		}
		for ci := range p.Components {
			v := eval.NewView(g, ci)
			all, err := naive.AllModels(v, 0)
			if err != nil {
				t.Fatal(err)
			}
			var hasTotal bool
			var nonTotalExhaustive *interp.Interp
			for _, m := range all {
				if m.Total() {
					hasTotal = true
					continue
				}
				maximal := true
				for _, o := range all {
					if m.ProperSubsetOf(o) {
						maximal = false
						break
					}
				}
				if maximal {
					nonTotalExhaustive = m
				}
			}
			if hasTotal && nonTotalExhaustive != nil {
				found = true
				t.Logf("witness (seed %d, component %d): non-total exhaustive %s alongside a total model\nprogram:\n%s",
					seed, ci, nonTotalExhaustive, p)
				break
			}
		}
	}
	if !found {
		t.Error("no witness for the paper's non-total-exhaustive remark in 400 random programs")
	}
}
