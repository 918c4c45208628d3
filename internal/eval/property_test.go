// Property-based tests for §2 of the paper on seeded random ordered
// programs: Lemma 1 (monotonicity of V), Proposition 1 (lfp(V) is a
// model), Theorem 1(a) (assumption freedom ⟺ enabled-version fixpoint),
// Theorem 1(b) (lfp(V) is assumption free and is the intersection of all
// models), Proposition 2 (every model extends to an exhaustive one), and
// the agreement of smart and full grounding.
package eval_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/stable"
	"repro/internal/transform"
	"repro/internal/workload"
)

func randomOrdered(seed int64) *ast.OrderedProgram {
	rng := rand.New(rand.NewSource(seed))
	comps := 1 + rng.Intn(3)
	return workload.RandomOrdered(rng, comps, workload.RandomConfig{
		Atoms: 3 + rng.Intn(3), Rules: 6 + rng.Intn(6), MaxBody: 2,
		NegHeads: true, NegBody: true,
	})
}

func groundMode(t *testing.T, p *ast.OrderedProgram, mode ground.Mode) *ground.Program {
	t.Helper()
	opts := ground.DefaultOptions()
	opts.Mode = mode
	g, err := ground.Ground(p, opts)
	if err != nil {
		t.Fatalf("ground: %v", err)
	}
	return g
}

// randomInterp builds a random consistent interpretation over the table.
func randomInterp(rng *rand.Rand, tab *interp.Table) *interp.Interp {
	in := interp.New(tab)
	for i := 0; i < tab.Len(); i++ {
		switch rng.Intn(3) {
		case 0:
			in.AddLit(interp.MkLit(interp.AtomID(i), false))
		case 1:
			in.AddLit(interp.MkLit(interp.AtomID(i), true))
		}
	}
	return in
}

const propTrials = 80

// TestLemma1Monotone: I ⊆ J implies V(I) ⊆ V(J).
func TestLemma1Monotone(t *testing.T) {
	for seed := int64(0); seed < propTrials; seed++ {
		p := randomOrdered(seed)
		g := groundMode(t, p, ground.ModeFull)
		rng := rand.New(rand.NewSource(seed + 10_000))
		for ci := range p.Components {
			v := eval.NewView(g, ci)
			for trial := 0; trial < 5; trial++ {
				small := randomInterp(rng, g.Tab)
				// Grow small into a consistent superset.
				big := small.Clone()
				for i := 0; i < g.Tab.Len(); i++ {
					id := interp.AtomID(i)
					if big.Value(id) == interp.Undef && rng.Intn(2) == 0 {
						big.AddLit(interp.MkLit(id, rng.Intn(2) == 0))
					}
				}
				vs, err1 := v.VOnce(small)
				vb, err2 := v.VOnce(big)
				if err1 != nil || err2 != nil {
					// V of an arbitrary interpretation may derive a
					// complementary pair; monotonicity as set inclusion is
					// only claimed within the consistent lattice, so skip.
					continue
				}
				if !vs.SubsetOf(vb) {
					t.Fatalf("seed %d comp %d: V not monotone:\nI=%s -> %s\nJ=%s -> %s",
						seed, ci, small, vs, big, vb)
				}
			}
		}
	}
}

// TestTheorem1 checks, per component: the least model is a model, is
// assumption free under both the direct Definition 6/7 check and the
// Theorem 1(a) fixpoint check, those two checks agree on random
// interpretations, and the least model is the intersection of all models
// (Theorem 1(b)).
func TestTheorem1(t *testing.T) {
	for seed := int64(0); seed < propTrials; seed++ {
		p := randomOrdered(seed)
		g := groundMode(t, p, ground.ModeFull)
		rng := rand.New(rand.NewSource(seed + 20_000))
		for ci := range p.Components {
			v := eval.NewView(g, ci)
			least, err := v.LeastModel()
			if err != nil {
				t.Fatalf("seed %d comp %d: least: %v", seed, ci, err)
			}
			naive, err := v.LeastModelNaive()
			if err != nil {
				t.Fatalf("seed %d comp %d: naive least: %v", seed, ci, err)
			}
			if !least.Equal(naive) {
				t.Fatalf("seed %d comp %d: semi-naive %s != naive %s", seed, ci, least, naive)
			}
			if !v.IsModel(least) {
				_, why := v.ModelViolation(least)
				t.Fatalf("seed %d comp %d: least model %s is not a model: %s", seed, ci, least, why)
			}
			if !v.IsAssumptionFree(least) || !v.IsAssumptionFreeDirect(least) {
				t.Fatalf("seed %d comp %d: least model %s not assumption free", seed, ci, least)
			}
			// Theorem 1(a): the two assumption-freedom characterisations
			// agree on arbitrary interpretations.
			for trial := 0; trial < 20; trial++ {
				m := randomInterp(rng, g.Tab)
				if got, want := v.IsAssumptionFree(m), v.IsAssumptionFreeDirect(m); got != want {
					t.Fatalf("seed %d comp %d: Thm 1(a) mismatch on %s: fixpoint=%v direct=%v",
						seed, ci, m, got, want)
				}
			}
			// Theorem 1(b): least = intersection of all models.
			if g.Tab.Len() <= 8 {
				all, err := stable.AllModels(v, 0)
				if err != nil {
					t.Fatalf("seed %d comp %d: all models: %v", seed, ci, err)
				}
				if len(all) == 0 {
					t.Fatalf("seed %d comp %d: no models (Proposition 1 violated)", seed, ci)
				}
				inter := stable.Intersection(all)
				if !inter.Equal(least) {
					t.Fatalf("seed %d comp %d: intersection %s != least %s", seed, ci, inter, least)
				}
			}
		}
	}
}

// TestProposition2 checks that every assumption-free model extends to an
// exhaustive model.
func TestProposition2(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		p := randomOrdered(seed)
		g := groundMode(t, p, ground.ModeFull)
		if g.Tab.Len() > 6 {
			continue // keep the doubly exponential check small
		}
		for ci := range p.Components {
			v := eval.NewView(g, ci)
			af, err := stable.AssumptionFreeModelsCtx(context.Background(), v, stable.Options{})
			if err != nil {
				t.Fatalf("seed %d comp %d: af: %v", seed, ci, err)
			}
			for _, m := range af {
				ex, err := stable.ExtendToExhaustive(v, m, 0)
				if err != nil {
					t.Fatalf("seed %d comp %d: extend: %v", seed, ci, err)
				}
				if !m.SubsetOf(ex) {
					t.Fatalf("seed %d comp %d: %s ⊄ %s", seed, ci, m, ex)
				}
				ok, err := stable.IsExhaustive(v, ex, 0)
				if err != nil {
					t.Fatalf("seed %d comp %d: isExhaustive: %v", seed, ci, err)
				}
				if !ok {
					t.Fatalf("seed %d comp %d: extension %s of %s not exhaustive", seed, ci, ex, m)
				}
			}
		}
	}
}

// TestSmartVsFullGrounding: on random ordered programs the smart grounder
// agrees with the full grounder on least models, assumption-free model
// families and stable models, restricted to the smart (relevant) atom
// table; atoms the smart grounder omits are undefined in every full-mode
// assumption-free model.
func TestSmartVsFullGrounding(t *testing.T) {
	for seed := int64(0); seed < propTrials; seed++ {
		p := randomOrdered(seed)
		gf := groundMode(t, p, ground.ModeFull)
		gs := groundMode(t, p, ground.ModeSmart)
		for ci := range p.Components {
			vf := eval.NewView(gf, ci)
			vs := eval.NewView(gs, ci)
			lf, err := vf.LeastModel()
			if err != nil {
				t.Fatalf("seed %d comp %d: full least: %v", seed, ci, err)
			}
			ls, err := vs.LeastModel()
			if err != nil {
				t.Fatalf("seed %d comp %d: smart least: %v", seed, ci, err)
			}
			if lf.String() != ls.String() {
				t.Fatalf("seed %d comp %d: full least %s != smart least %s", seed, ci, lf, ls)
			}
			aff, err := stable.AssumptionFreeModelsCtx(context.Background(), vf, stable.Options{})
			if err != nil {
				t.Fatalf("seed %d comp %d: full af: %v", seed, ci, err)
			}
			afs, err := stable.AssumptionFreeModelsCtx(context.Background(), vs, stable.Options{})
			if err != nil {
				t.Fatalf("seed %d comp %d: smart af: %v", seed, ci, err)
			}
			if !sameModelStrings(aff, afs) {
				t.Fatalf("seed %d comp %d: full af %v != smart af %v\nprogram:\n%s",
					seed, ci, strs(aff), strs(afs), p)
			}
		}
	}
}

func strs(ms []*interp.Interp) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

func sameModelStrings(a, b []*interp.Interp) bool {
	as, bs := strs(a), strs(b)
	if len(as) != len(bs) {
		return false
	}
	seen := make(map[string]int)
	for _, s := range as {
		seen[s]++
	}
	for _, s := range bs {
		seen[s]--
		if seen[s] < 0 {
			return false
		}
	}
	return true
}

// TestSmartVsFullDatalogOV exercises the grounder's EDB/CWA optimization:
// on random non-ground seminegative programs translated through OV and EV,
// the smart grounder (which joins EDB body literals against the facts and
// drops provably blocked competitors) must agree with exhaustive full
// grounding on least models and assumption-free model families.
func TestSmartVsFullDatalogOV(t *testing.T) {
	for seed := int64(0); seed < 36; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rules := workload.RandomDatalog(rng, 3, 3, 4)
		for _, translate := range []string{"ov", "ev"} {
			var prog *ast.OrderedProgram
			var err error
			if translate == "ov" {
				prog, err = transform.OV("c", rules)
			} else {
				prog, err = transform.EV("c", rules)
			}
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, translate, err)
			}
			gf := groundMode(t, prog, ground.ModeFull)
			gs := groundMode(t, prog, ground.ModeSmart)
			vf, err := eval.NewViewByName(gf, "c")
			if err != nil {
				t.Fatal(err)
			}
			vs, err := eval.NewViewByName(gs, "c")
			if err != nil {
				t.Fatal(err)
			}
			lf, err := vf.LeastModel()
			if err != nil {
				t.Fatalf("seed %d %s: full least: %v", seed, translate, err)
			}
			ls, err := vs.LeastModel()
			if err != nil {
				t.Fatalf("seed %d %s: smart least: %v", seed, translate, err)
			}
			if lf.String() != ls.String() {
				t.Fatalf("seed %d %s: full least != smart least\nfull:  %s\nsmart: %s\nprogram: %v",
					seed, translate, lf, ls, rules)
			}
			aff, err := stable.AssumptionFreeModelsCtx(context.Background(), vf, stable.Options{MaxLeaves: 1 << 15})
			if err != nil {
				continue // search too large for this seed; least already checked
			}
			afs, err := stable.AssumptionFreeModelsCtx(context.Background(), vs, stable.Options{MaxLeaves: 1 << 15})
			if err != nil {
				continue
			}
			if !sameModelStrings(aff, afs) {
				t.Fatalf("seed %d %s: af families differ\nfull:  %v\nsmart: %v\nprogram: %v",
					seed, translate, strs(aff), strs(afs), rules)
			}
		}
	}
}

// TestSmartVsFullOrderedDatalog: non-ground multi-component random
// programs agree across grounding modes on least models in every
// component, and the least model passes the model and assumption-freedom
// checks.
func TestSmartVsFullOrderedDatalog(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomOrderedDatalog(rng, 1+rng.Intn(3), 3)
		gf := groundMode(t, p, ground.ModeFull)
		gs := groundMode(t, p, ground.ModeSmart)
		for ci := range p.Components {
			vf := eval.NewView(gf, ci)
			vs := eval.NewView(gs, ci)
			lf, err := vf.LeastModel()
			if err != nil {
				t.Fatalf("seed %d comp %d: full: %v", seed, ci, err)
			}
			ls, err := vs.LeastModel()
			if err != nil {
				t.Fatalf("seed %d comp %d: smart: %v", seed, ci, err)
			}
			if lf.String() != ls.String() {
				t.Fatalf("seed %d comp %d: least models differ\nfull:  %s\nsmart: %s\nprogram:\n%s",
					seed, ci, lf, ls, p)
			}
			if !vf.IsAssumptionFree(lf) || !vs.IsAssumptionFree(ls) {
				t.Fatalf("seed %d comp %d: least model not assumption free", seed, ci)
			}
		}
	}
}

// TestQuickLeastModelIsModel drives testing/quick over random seeds: the
// least model in every component is always an assumption-free model.
func TestQuickLeastModelIsModel(t *testing.T) {
	f := func(seed int64) bool {
		p := randomOrdered(seed % 100_000)
		g, err := ground.Ground(p, ground.DefaultOptions())
		if err != nil {
			return false
		}
		for ci := range p.Components {
			v := eval.NewView(g, ci)
			m, err := v.LeastModel()
			if err != nil {
				return false
			}
			if !v.IsModel(m) || !v.IsAssumptionFree(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
