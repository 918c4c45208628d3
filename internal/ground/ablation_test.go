package ground_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/oracle/gen"
	"repro/internal/oracle/naive"
	"repro/internal/stable"
	"repro/internal/transform"
)

// TestEDBSimplificationIsPureOptimisation: disabling the EDB/CWA
// competitor simplification changes instance counts but never the least
// model or the assumption-free family.
func TestEDBSimplificationIsPureOptimisation(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rules := gen.RandomDatalog(rng, 3, 4, 5)
		for _, tr := range []string{"ov", "ev"} {
			p, err := transform.OV("c", rules)
			if tr == "ev" {
				p, err = transform.EV("c", rules)
			}
			if err != nil {
				t.Fatal(err)
			}
			on := ground.DefaultOptions()
			off := ground.DefaultOptions()
			off.NoEDBSimplify = true
			gOn, err := ground.GroundCtx(context.Background(), p, on)
			if err != nil {
				t.Fatal(err)
			}
			gOff, err := ground.GroundCtx(context.Background(), p, off)
			if err != nil {
				t.Fatal(err)
			}
			if gOn.Rules.Len() > gOff.Rules.Len() {
				t.Errorf("seed %d %s: simplification increased instances (%d > %d)",
					seed, tr, gOn.Rules.Len(), gOff.Rules.Len())
			}
			vOn, err := naive.NewViewByName(gOn, "c")
			if err != nil {
				t.Fatal(err)
			}
			vOff, err := naive.NewViewByName(gOff, "c")
			if err != nil {
				t.Fatal(err)
			}
			lOn, err := vOn.LeastModelCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			lOff, err := vOff.LeastModelCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if lOn.String() != lOff.String() {
				t.Fatalf("seed %d %s: least model changed by ablation:\non:  %s\noff: %s",
					seed, tr, lOn, lOff)
			}
			afOn, err1 := stable.AssumptionFreeModelsCtx(context.Background(), vOn, stable.Options{MaxLeaves: 1 << 14})
			afOff, err2 := stable.AssumptionFreeModelsCtx(context.Background(), vOff, stable.Options{MaxLeaves: 1 << 14})
			if err1 != nil || err2 != nil {
				continue // search too large; least-model agreement already checked
			}
			names := func(ms []*interp.Interp) []string {
				out := make([]string, len(ms))
				for i, m := range ms {
					out[i] = m.String()
				}
				sort.Strings(out)
				return out
			}
			on_, off_ := names(afOn), names(afOff)
			if len(on_) != len(off_) {
				t.Fatalf("seed %d %s: af family size changed by ablation: %d vs %d",
					seed, tr, len(on_), len(off_))
			}
			for i := range on_ {
				if on_[i] != off_[i] {
					t.Fatalf("seed %d %s: af families differ at %d: %s vs %s",
						seed, tr, i, on_[i], off_[i])
				}
			}
		}
	}
}
