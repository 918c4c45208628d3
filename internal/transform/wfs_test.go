package transform_test

import (
	"context"
	"testing"

	"repro/internal/classical"
	"repro/internal/stable"
	"repro/internal/transform"
)

// TestLeastOVvsWellFounded probes the relationship between the least model
// of OV(C) in C and the well-founded model of C. By Theorem 1(b) the least
// model is the intersection of all OV models, and since the assumption-free
// OV models are exactly the founded models (Prop. 4 direction (i)) while
// the well-founded model is the intersection of the 3-valued stable models
// [P3], least(OV) ⊆ WF always. This test asserts containment and records
// whether equality held across the sample (it does not always: V is more
// cautious than the unfounded-set closure of WFS).
func TestLeastOVvsWellFounded(t *testing.T) {
	equal, strict := 0, 0
	for seed := int64(0); seed < trials; seed++ {
		rules := randomSeminegative(seed)
		cp, err := classical.GroundRules(rules, classical.Options{Full: true})
		if err != nil {
			t.Fatalf("seed %d: ground: %v", seed, err)
		}
		wf := cp.WellFounded()
		ov, err := transform.OV("c", rules)
		if err != nil {
			t.Fatalf("seed %d: OV: %v", seed, err)
		}
		g := groundFull(t, ov)
		v := viewOf(t, g, "c")
		least, err := v.LeastModel()
		if err != nil {
			t.Fatalf("seed %d: least: %v", seed, err)
		}
		lw := convert(t, wf, g.Tab)
		if !least.SubsetOf(lw) {
			t.Fatalf("seed %d: least(OV) %s ⊄ WF %s\nprogram: %v", seed, least, wf, rules)
		}
		if least.Equal(lw) {
			equal++
		} else {
			strict++
		}
	}
	t.Logf("least(OV) == WF on %d/%d seeds, strictly smaller on %d", equal, equal+strict, strict)
	if equal == 0 {
		t.Error("least(OV) never equalled WF; the containment test is vacuous")
	}
}

// TestWFTrueFalseInsideEveryStableOV: the well-founded true and false
// atoms are decided the same way in every stable model of OV(C) in C.
func TestWFTrueFalseInsideEveryStableOV(t *testing.T) {
	for seed := int64(0); seed < trials; seed++ {
		rules := randomSeminegative(seed)
		cp, err := classical.GroundRules(rules, classical.Options{Full: true})
		if err != nil {
			t.Fatalf("seed %d: ground: %v", seed, err)
		}
		wf := cp.WellFounded()
		ov, err := transform.OV("c", rules)
		if err != nil {
			t.Fatalf("seed %d: OV: %v", seed, err)
		}
		g := groundFull(t, ov)
		v := viewOf(t, g, "c")
		ms, err := stable.StableModelsCtx(context.Background(), v, stable.Options{})
		if err != nil {
			t.Fatalf("seed %d: stable: %v", seed, err)
		}
		wfo := convert(t, wf, g.Tab)
		for _, m := range ms {
			for _, l := range wfo.Lits() {
				if !m.HasLit(l) {
					t.Fatalf("seed %d: wf literal %s absent from stable model %s\nprogram: %v",
						seed, g.Tab.LitString(l), m, rules)
				}
			}
		}
	}
}
