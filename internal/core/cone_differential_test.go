package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oracle/gen"
)

// A model derived from a write's cone must hold exactly the literals of
// the rebuild it replaces: the least model over a fresh view of the same
// snapshot. Over the seeded corpus, writes land in batches of k = 1, 2 and
// 8 with no read between them, so the seeds of up to eight writes
// accumulate on one base; the random facts intern fresh constants, retract
// absent ones and resurrect retracted ones. After each batch every
// component is read on the newest version, then on each version the batch
// pinned on the way — parents read after their child's model exists.
func TestConeDifferential(t *testing.T) {
	const comps, nconst = 3, 3
	programs := 200
	if testing.Short() {
		programs = 40
	}
	before := obs.Default().Snap()
	t.Run("corpus", func(t *testing.T) {
		for seed := 0; seed < programs; seed++ {
			for _, k := range []int{1, 2, 8} {
				seed, k := seed, k
				t.Run(fmt.Sprintf("seed%03d/k%d", seed, k), func(t *testing.T) {
					t.Parallel()
					coneAgainstRebuild(t, rand.New(rand.NewSource(int64(2000+seed))), comps, nconst, k)
				})
			}
		}
	})
	d := obs.Default().Snap().Diff(before)
	if d["core.least.cone"] == 0 || d["core.least.cone_fallback.size"] == 0 {
		t.Errorf("the corpus derived %d models from cones and fell back on size %d times; both paths need cases",
			d["core.least.cone"], d["core.least.cone_fallback.size"])
	}
}

func coneAgainstRebuild(t *testing.T, rng *rand.Rand, comps, nconst, k int) {
	ctx := context.Background()
	prog := gen.RandomOrderedDatalog(rng, comps, nconst)
	eng, err := core.NewEngineCtx(ctx, prog, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var history []string
	read := func(s *core.Snapshot) {
		t.Helper()
		for _, c := range prog.Components {
			m, err := s.LeastModelCtx(ctx, c.Name)
			if err != nil {
				t.Fatalf("after %v, v%d %s: %v", history, s.Version(), c.Name, err)
			}
			if same, rebuilt, err := s.SameAsRebuild(c.Name, m); err != nil || !same {
				t.Fatalf("after %v, v%d %s: memoised model %s, rebuilt %s (err %v)",
					history, s.Version(), c.Name, m, rebuilt, err)
			}
		}
	}
	read(eng.Current())
	for batch := 0; batch < 3; batch++ {
		var pinned []*core.Snapshot
		for w := 0; w < k; w++ {
			o := randomOp(rng, comps, nconst)
			history = append(history, o.String())
			lits := []ast.Literal{o.lit}
			var s *core.Snapshot
			if o.retract {
				s, err = eng.Retract(ctx, prog.Components[o.comp].Name, lits)
			} else {
				s, err = eng.Update(ctx, prog.Components[o.comp].Name, lits)
			}
			if err != nil {
				t.Fatalf("after %v: %v", history, err)
			}
			pinned = append(pinned, s)
		}
		read(pinned[len(pinned)-1])
		for _, s := range pinned[:len(pinned)-1] {
			read(s)
		}
	}
}
