// Counter-consistency tests: the Definition 2 status counters flushed by
// the semi-naive postpass (derived from its own unsat/blocked bookkeeping)
// must agree with the ones flushed by the naive oracle (derived from the
// authoritative View.Statuses) on every program of the differential suite.
// A drift here means the cheap postpass is counting a different relation
// than the paper defines.
package eval_test

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/obs"
)

// statusDelta runs f and returns the eval.rules.* counter deltas it caused.
func statusDelta(t *testing.T, f func() error) obs.Snap {
	t.Helper()
	before := obs.Default().Snap()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return obs.Default().Snap().Diff(before)
}

func TestCounterConsistencyAppliedRules(t *testing.T) {
	if !obs.On() {
		t.Skip("metrics registry disabled")
	}
	for pi, p := range differentialPrograms(t) {
		g, err := ground.GroundCtx(context.Background(), p, ground.DefaultOptions())
		if err != nil {
			t.Fatalf("program %d: ground: %v", pi, err)
		}
		for ci := range p.Components {
			v := eval.NewView(g, ci)
			semi := statusDelta(t, func() error { _, err := v.LeastModelCtx(context.Background()); return err })
			naive := statusDelta(t, func() error { _, err := v.LeastModelNaiveCtx(context.Background()); return err })
			for _, name := range []string{
				"eval.rules.applied",
				"eval.rules.blocked",
				"eval.rules.overruled",
				"eval.rules.defeated",
			} {
				if s, n := semi.Get(name), naive.Get(name); s != n {
					t.Fatalf("program %d comp %d: %s: semi-naive counted %d, naive counted %d\nprogram:\n%s",
						pi, ci, name, s, n, p)
				}
			}
		}
	}
}
