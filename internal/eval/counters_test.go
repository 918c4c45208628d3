// Counter-consistency tests: the Definition 2 status counters flushed by
// the semi-naive postpass (derived from its own unsat/blocked bookkeeping)
// must agree with the authoritative View.Statuses tallied over the naive
// oracle's least model on every program of the differential suite.
// A drift here means the cheap postpass is counting a different relation
// than the paper defines.
package eval_test

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/oracle/naive"
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
			ref, err := naive.LeastModelNaiveCtx(context.Background(), v)
			if err != nil {
				t.Fatalf("program %d comp %d: naive: %v", pi, ci, err)
			}
			want := viewStatuses(v, ref)
			for _, name := range []string{
				"eval.rules.applied",
				"eval.rules.blocked",
				"eval.rules.overruled",
				"eval.rules.defeated",
			} {
				if s, n := semi[name], want[name]; s != n {
					t.Fatalf("program %d comp %d: %s: semi-View.Statuses counted %d, naive counted %d\nprogram:\n%s",
						pi, ci, name, s, n, p)
				}
			}
		}
	}
}

// viewStatuses tallies the Definition 2 statuses of every visible rule of v
// against m with the View predicates, keyed like the eval.rules.* counters.
func viewStatuses(v *eval.View, m *interp.Interp) obs.Snap {
	out := obs.Snap{}
	for r := 0; r < v.NumRules(); r++ {
		st := v.Statuses(r, m)
		if st.Applied {
			out["eval.rules.applied"]++
		}
		if st.Blocked {
			out["eval.rules.blocked"]++
		}
		if st.Overruled {
			out["eval.rules.overruled"]++
		}
		if st.Defeated {
			out["eval.rules.defeated"]++
		}
	}
	return out
}
