// Correspondence tests for §3 and §4 of the paper: Propositions 3, 4 and
// 5, Corollary 1 and Theorem 2 are checked on seeded random propositional
// programs by exhaustive model enumeration, comparing the ordered engine
// (via the OV/EV/3V translations) against the independently implemented
// classical semantics (internal/classical) and the direct Definition 11
// semantics (internal/oracle/negsem).
package transform_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/classical"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/oracle/gen"
	"repro/internal/oracle/nafmodels"
	"repro/internal/oracle/naive"
	"repro/internal/oracle/negsem"
	"repro/internal/oracle/parsetest"
	"repro/internal/stable"
	"repro/internal/transform"
)

// groundFull grounds an ordered program in full mode.
func groundFull(t *testing.T, p *ast.OrderedProgram) *ground.Program {
	t.Helper()
	opts := ground.DefaultOptions()
	opts.Mode = ground.ModeFull
	g, err := ground.GroundCtx(context.Background(), p, opts)
	if err != nil {
		t.Fatalf("ground: %v", err)
	}
	return g
}

func viewOf(t *testing.T, g *ground.Program, comp string) *eval.View {
	t.Helper()
	v, err := naive.NewViewByName(g, comp)
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	return v
}

// modelSet renders a family of interpretations as a sorted string set.
func modelSet(ms []*interp.Interp) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	sort.Strings(out)
	// Deduplicate (brute-force enumerations never duplicate, but maximal
	// filters may hand us equal models from different branches).
	dedup := out[:0]
	for i, s := range out {
		if i == 0 || out[i-1] != s {
			dedup = append(dedup, s)
		}
	}
	return dedup
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// convert rebuilds an interpretation over another atom table (atoms are
// matched structurally).
func convert(t *testing.T, m *interp.Interp, tab *interp.Table) *interp.Interp {
	t.Helper()
	out, err := parsetest.FromLiterals(tab, m.Literals())
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	return out
}

// enumerate3 runs fn on every three-valued assignment over the table.
func enumerate3(tab *interp.Table, fn func(m *interp.Interp)) {
	cur := interp.New(tab)
	n := tab.Len()
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			fn(cur)
			return
		}
		id := interp.AtomID(i)
		cur.AddLit(interp.MkLit(id, false))
		rec(i + 1)
		cur.RemoveLit(interp.MkLit(id, false))
		cur.AddLit(interp.MkLit(id, true))
		rec(i + 1)
		cur.RemoveLit(interp.MkLit(id, true))
		rec(i + 1)
	}
	rec(0)
}

func randomSeminegative(seed int64) []*ast.Rule {
	rng := rand.New(rand.NewSource(seed))
	return gen.RandomPropositional(rng, gen.RandomConfig{
		Atoms: 4 + rng.Intn(2), Rules: 4 + rng.Intn(4), MaxBody: 2,
		NegHeads: false, NegBody: true,
	})
}

func randomNegative(seed int64) []*ast.Rule {
	rng := rand.New(rand.NewSource(seed))
	return gen.RandomPropositional(rng, gen.RandomConfig{
		Atoms: 4 + rng.Intn(2), Rules: 4 + rng.Intn(4), MaxBody: 2,
		NegHeads: true, NegBody: true,
	})
}

const trials = 120

// TestProp3 checks: every model of OV(C) in C is a 3-valued model of C.
// Example 7 shows the converse fails, which we also witness.
func TestProp3(t *testing.T) {
	for seed := int64(0); seed < trials; seed++ {
		rules := randomSeminegative(seed)
		cp, err := classical.GroundRules(rules, classical.Options{Full: true})
		if err != nil {
			t.Fatalf("seed %d: classical ground: %v", seed, err)
		}
		ov, err := transform.OV("c", rules)
		if err != nil {
			t.Fatalf("seed %d: OV: %v", seed, err)
		}
		g := groundFull(t, ov)
		v := viewOf(t, g, "c")
		models, err := naive.AllModels(v, 0)
		if err != nil {
			t.Fatalf("seed %d: enumerate: %v", seed, err)
		}
		for _, m := range models {
			cm := convert(t, m, cp.Tab)
			if !nafmodels.IsThreeValuedModel(cp, cm) {
				t.Fatalf("seed %d: OV model %s is not a 3-valued model of C", seed, m)
			}
		}
	}
}

// TestExample7 verifies the paper's witness that Proposition 3's converse
// fails: for C = {p :- -p}, {p} is a 3-valued model of C but not a model
// of OV(C) in C.
func TestExample7(t *testing.T) {
	p := ast.Atom{Pred: "p"}
	rules := []*ast.Rule{{Head: ast.Pos(p), Body: []ast.Literal{ast.Neg(p)}}}
	cp, err := classical.GroundRules(rules, classical.Options{Full: true})
	if err != nil {
		t.Fatalf("classical ground: %v", err)
	}
	m := interp.New(cp.Tab)
	id, _ := cp.Tab.Lookup(p)
	m.AddLit(interp.MkLit(id, false))
	if !nafmodels.IsThreeValuedModel(cp, m) {
		t.Fatal("{p} should be a 3-valued model of {p :- -p}")
	}
	ov, err := transform.OV("c", rules)
	if err != nil {
		t.Fatalf("OV: %v", err)
	}
	g := groundFull(t, ov)
	v := viewOf(t, g, "c")
	om := convert(t, m, g.Tab)
	if v.IsModel(om) {
		t.Fatal("{p} should not be a model of OV(C) in C")
	}
	// But it is a model of EV(C) in C (Proposition 5(a)).
	evp, err := transform.EV("c", rules)
	if err != nil {
		t.Fatalf("EV: %v", err)
	}
	ge := groundFull(t, evp)
	ve := viewOf(t, ge, "c")
	em := convert(t, m, ge.Tab)
	if !ve.IsModel(em) {
		t.Fatal("{p} should be a model of EV(C) in C")
	}
}

// TestProp4AndCor1 checks Proposition 4 and Corollary 1.
//
// Proposition 4 as literally stated — the assumption-free models of OV(C)
// in C are exactly the 3-valued founded models of C — has a gap that this
// reproduction uncovered (the paper only sketches the proof): a founded
// model may leave an atom undefined whose every deriving rule is blocked,
// while Definition 3(b) forces OV's CWA fact to make it false. Witness
// (seed 0): C = {a1 :- -a3. a3 :- -a0. a3 :- -a0, a2. a2 :- a2.
// a0 :- a0, -a2. a0 :- a0.} and M = {-a0, a3}: M is founded (its positive
// part {a3} is the fixpoint of its applied rules) but not an OV model,
// because a1's only rule is blocked and the applicable CWA fact -a1 is
// neither overruled nor defeated.
//
// What does hold, and is verified here:
//
//	(i)   af(OV(C)) ⊆ founded(C)            (the sound direction);
//	(ii)  every founded model of C is a subset of an af(OV(C)) model
//	      (the repaired converse);
//	(iii) the stable models coincide        (Corollary 1 survives).
func TestProp4AndCor1(t *testing.T) {
	for seed := int64(0); seed < trials; seed++ {
		rules := randomSeminegative(seed)
		cp, err := classical.GroundRules(rules, classical.Options{Full: true})
		if err != nil {
			t.Fatalf("seed %d: classical ground: %v", seed, err)
		}
		founded, err := nafmodels.FoundedModels(cp, 0)
		if err != nil {
			t.Fatalf("seed %d: founded: %v", seed, err)
		}
		ov, err := transform.OV("c", rules)
		if err != nil {
			t.Fatalf("seed %d: OV: %v", seed, err)
		}
		g := groundFull(t, ov)
		v := viewOf(t, g, "c")
		af, err := stable.AssumptionFreeModelsCtx(context.Background(), v, stable.Options{})
		if err != nil {
			t.Fatalf("seed %d: af: %v", seed, err)
		}
		// (i): af(OV) ⊆ founded.
		foundedSet := modelSet(founded)
		for _, m := range af {
			s := m.String()
			ok := false
			for _, f := range foundedSet {
				if f == s {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("seed %d: af(OV) model %s is not founded; founded=%v\nprogram: %v",
					seed, s, foundedSet, rules)
			}
		}
		// (ii): every founded model ⊆ some af(OV) model.
		for _, m := range founded {
			fm := convert(t, m, g.Tab)
			ok := false
			for _, a := range af {
				if fm.SubsetOf(a) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("seed %d: founded model %s not contained in any af(OV) model %v\nprogram: %v",
					seed, m, modelSet(af), rules)
			}
		}
		// (iii) Corollary 1: stable models coincide.
		szStable, err := nafmodels.StableThreeValued(cp, 0)
		if err != nil {
			t.Fatalf("seed %d: sz stable: %v", seed, err)
		}
		ovStable, err := stable.StableModelsCtx(context.Background(), v, stable.Options{})
		if err != nil {
			t.Fatalf("seed %d: ov stable: %v", seed, err)
		}
		if got, want := modelSet(ovStable), modelSet(szStable); !equalSets(got, want) {
			t.Fatalf("seed %d: stable(OV)=%v but stable3(C)=%v\nprogram: %v", seed, got, want, rules)
		}
	}
}

// TestProp5 checks Proposition 5: (a) the models of EV(C) in C are exactly
// the 3-valued models of C; (b) every assumption-free model of OV(C) is
// one of EV(C); (c) every assumption-free model of EV(C) is a subset of
// one of OV(C); (d) the stable models coincide.
func TestProp5(t *testing.T) {
	for seed := int64(0); seed < trials; seed++ {
		rules := randomSeminegative(seed)
		cp, err := classical.GroundRules(rules, classical.Options{Full: true})
		if err != nil {
			t.Fatalf("seed %d: classical ground: %v", seed, err)
		}
		evp, err := transform.EV("c", rules)
		if err != nil {
			t.Fatalf("seed %d: EV: %v", seed, err)
		}
		ge := groundFull(t, evp)
		ve := viewOf(t, ge, "c")

		// (a) by exhaustive enumeration over the classical table.
		enumerate3(cp.Tab, func(m *interp.Interp) {
			em := convert(t, m, ge.Tab)
			if got, want := ve.IsModel(em), nafmodels.IsThreeValuedModel(cp, m); got != want {
				t.Fatalf("seed %d: EV-model=%v but 3-valued-model=%v for %s\nprogram: %v",
					seed, got, want, m, rules)
			}
		})
		if t.Failed() {
			return
		}

		ovp, err := transform.OV("c", rules)
		if err != nil {
			t.Fatalf("seed %d: OV: %v", seed, err)
		}
		go_ := groundFull(t, ovp)
		vo := viewOf(t, go_, "c")
		afOV, err := stable.AssumptionFreeModelsCtx(context.Background(), vo, stable.Options{})
		if err != nil {
			t.Fatalf("seed %d: af(OV): %v", seed, err)
		}
		afEV, err := stable.AssumptionFreeModelsCtx(context.Background(), ve, stable.Options{})
		if err != nil {
			t.Fatalf("seed %d: af(EV): %v", seed, err)
		}
		// (b): af(OV) ⊆ af(EV).
		evSet := modelSet(afEV)
		for _, m := range afOV {
			s := m.String()
			found := false
			for _, e := range evSet {
				if e == s {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("seed %d: af(OV) model %s missing from af(EV)=%v\nprogram: %v", seed, s, evSet, rules)
			}
		}
		// (c): every af(EV) model is ⊆ some af(OV) model.
		for _, m := range afEV {
			em := convert(t, m, go_.Tab)
			ok := false
			for _, o := range afOV {
				if em.SubsetOf(o) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("seed %d: af(EV) model %s not contained in any af(OV) model %v\nprogram: %v",
					seed, m, modelSet(afOV), rules)
			}
		}
		// (d): stable sets coincide.
		stOV := stable.MaximalModels(afOV)
		stEV := stable.MaximalModels(afEV)
		if got, want := modelSet(stEV), modelSet(stOV); !equalSets(got, want) {
			t.Fatalf("seed %d: stable(EV)=%v but stable(OV)=%v\nprogram: %v", seed, got, want, rules)
		}
	}
}

// TestTheorem2 checks that the direct Definition 11 semantics for negative
// programs is equivalent to the 3V translation (Definition 10): same
// assumption-free models and same stable models, evaluated in the
// exceptions component.
func TestTheorem2(t *testing.T) {
	for seed := int64(0); seed < trials; seed++ {
		rules := randomNegative(seed)
		single := ast.SingleComponent("c", rules)
		opts := ground.DefaultOptions()
		opts.Mode = ground.ModeFull
		gs, err := ground.GroundCtx(context.Background(), single, opts)
		if err != nil {
			t.Fatalf("seed %d: ground: %v", seed, err)
		}
		direct := negsem.New(gs)
		afDirect, err := direct.AssumptionFreeModels(0)
		if err != nil {
			t.Fatalf("seed %d: direct af: %v", seed, err)
		}
		tv, err := transform.ThreeV(rules)
		if err != nil {
			t.Fatalf("seed %d: 3V: %v", seed, err)
		}
		g3 := groundFull(t, tv)
		v3 := viewOf(t, g3, transform.ExceptionsName)
		af3, err := stable.AssumptionFreeModelsCtx(context.Background(), v3, stable.Options{})
		if err != nil {
			t.Fatalf("seed %d: 3V af: %v", seed, err)
		}
		if got, want := modelSet(af3), modelSet(afDirect); !equalSets(got, want) {
			t.Fatalf("seed %d: af(3V)=%v but af(direct)=%v\nprogram: %v", seed, got, want, rules)
		}
		st3 := stable.MaximalModels(af3)
		stDirect, err := direct.StableModels(0)
		if err != nil {
			t.Fatalf("seed %d: direct stable: %v", seed, err)
		}
		if got, want := modelSet(st3), modelSet(stDirect); !equalSets(got, want) {
			t.Fatalf("seed %d: stable(3V)=%v but stable(direct)=%v\nprogram: %v", seed, got, want, rules)
		}
	}
}
