package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/interrupt"
	"repro/internal/obs"
	"repro/internal/oracle/gen"
	"repro/internal/stable"
)

// One toggle of bad(c5) on the policy shape re-evaluates a cone of two
// atoms, bad(c5) and ok(c5), by a fixpoint over the instances they head
// (the assert fires bad(c5) and -ok(c5); after the retract -ok(c5) :-
// bad(c5) is no longer applicable but still keeps ok(c5) undefined): no
// component view is built, the model counts under core.least.cone and
// nowhere else, and the p/1 bucket, outside the cone, is the parent's.
func TestConeCountsOneToggle(t *testing.T) {
	ctx := context.Background()
	e, err := NewEngineCtx(ctx, mustProgram(t, gen.PolicySource(50)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := func(s *Snapshot, goal string) int {
		t.Helper()
		got, err := s.QueryCtx(ctx, "exc", parseGoal(t, goal))
		if err != nil {
			t.Fatal(err)
		}
		return len(got)
	}
	v0 := e.Current()
	if n := q(v0, "p(X)") + q(v0, "-ok(X)"); n != 50 {
		t.Fatalf("v0: %d answers to p(X) and -ok(X), want 50", n)
	}
	fact := []ast.Literal{lit(t, "bad(c5)")}
	for step, write := range []func(context.Context, string, []ast.Literal) (*Snapshot, error){e.Update, e.Retract} {
		before := obs.Default().Snap()
		s, err := write(ctx, "exc", fact)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int64{
			"core.least.cone":                      1,
			"core.least.cone_atoms":                2,
			"core.least.computed":                  0,
			"core.least.cone_fallback.size":        0,
			"core.least.cone_fallback.no-base":     0,
			"core.least.cone_fallback.interrupted": 0,
			"core.view.builds":                     0,
			"eval.views.built":                     1,
			"eval.fired":                           2 - 2*int64(step),
			"core.index.builds":                    1,
		}
		if got := q(s, "-ok(X)"); got != 1-step {
			t.Fatalf("step %d: -ok(X) has %d answers, want %d", step, got, 1-step)
		}
		if got := q(s, "p(X)"); got != 50 {
			t.Fatalf("step %d: p(X) has %d answers, want 50", step, got)
		}
		d := obs.Default().Snap().Diff(before)
		for k, w := range want {
			if g := d[k]; g != w {
				t.Errorf("step %d: %s = %d, want %d", step, k, g, w)
			}
		}
	}
	// Explain builds the component's view on demand.
	m, err := e.Current().LeastModelCtx(ctx, "exc")
	if err != nil {
		t.Fatal(err)
	}
	if lines := m.Explain(lit(t, "ok(c5)").Atom); len(lines) != 2 {
		t.Fatalf("Explain(ok(c5)) on a cone model: %q", lines)
	}
}

// A write on a version whose model nobody computed leaves nothing to
// derive from: the read rebuilds and counts why. A cone that takes more
// than a quarter of the component's instances rebuilds too.
func TestConeFallbacks(t *testing.T) {
	ctx := context.Background()
	read := func(s *Snapshot) {
		t.Helper()
		m, err := s.LeastModelCtx(ctx, "exc")
		if err != nil {
			t.Fatal(err)
		}
		if same, rebuilt, err := s.SameAsRebuild("exc", m); err != nil || !same {
			t.Fatalf("v%d: model %s, rebuilt %s (err %v)", s.Version(), m, rebuilt, err)
		}
	}
	for _, c := range []struct {
		kb       int
		readV0   bool
		counter  string
		computed int64
	}{
		{kb: 50, readV0: false, counter: "core.least.cone_fallback.no-base", computed: 1},
		{kb: 2, readV0: true, counter: "core.least.cone_fallback.size", computed: 1},
		{kb: 50, readV0: true, counter: "core.least.cone", computed: 0},
	} {
		t.Run(fmt.Sprintf("kb%d/readV0=%v", c.kb, c.readV0), func(t *testing.T) {
			e, err := NewEngineCtx(ctx, mustProgram(t, gen.PolicySource(c.kb)), Config{})
			if err != nil {
				t.Fatal(err)
			}
			if c.readV0 {
				read(e.Current())
			}
			before := obs.Default().Snap()
			s, err := e.Update(ctx, "exc", []ast.Literal{lit(t, "bad(c0)")})
			if err != nil {
				t.Fatal(err)
			}
			read(s)
			d := obs.Default().Snap().Diff(before)
			if d[c.counter] != 1 || d["core.least.computed"] != c.computed {
				t.Errorf("%s = %d, core.least.computed = %d; want 1, %d", c.counter, d[c.counter], d["core.least.computed"], c.computed)
			}
		})
	}
}

// A cone interrupted by its context yields an interruption and no model;
// the carry survives, so the next read derives the model from it.
func TestConeInterrupted(t *testing.T) {
	e, err := NewEngineCtx(context.Background(), mustProgram(t, gen.PolicySource(50)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Current().LeastModelCtx(context.Background(), "exc"); err != nil {
		t.Fatal(err)
	}
	s, err := e.Update(context.Background(), "exc", []ast.Literal{lit(t, "bad(c7)")})
	if err != nil {
		t.Fatal(err)
	}
	i, _ := s.resolve("exc")
	st := s.comp(i)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, _, err := s.coneModel(ctx, i, st, st.carry.Load())
	if m != nil || !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("cone under a cancelled context: model %v, err %v", m, err)
	}
	before := obs.Default().Snap()
	if !holdsIn(t, s, "exc", "-ok(c7)") {
		t.Fatal("-ok(c7) does not hold after asserting bad(c7)")
	}
	if n := obs.Default().Snap().Diff(before)["core.least.cone"]; n != 1 {
		t.Fatalf("core.least.cone = %d after the interrupted cone, want 1", n)
	}
	if st.carry.Load() != nil {
		t.Fatal("the carry outlived the model it was for")
	}
}

// A version pinned before a write interned new atoms keeps its own
// Herbrand base: its models stay total and its atom count does not move,
// whether they were computed before the write or after it.
func TestPinnedSnapshotKeepsItsHerbrandBase(t *testing.T) {
	const src = "module m { p(a). q(X) :- p(X). }"
	for _, computeFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("computeFirst=%v", computeFirst), func(t *testing.T) {
			e, err := NewEngineCtx(context.Background(), mustProgram(t, src), Config{})
			if err != nil {
				t.Fatal(err)
			}
			v0 := e.Current()
			check := func() {
				t.Helper()
				if n := v0.NumAtoms(); n != 2 {
					t.Errorf("v0 NumAtoms = %d, want 2", n)
				}
				m, err := v0.LeastModelCtx(context.Background(), "m")
				if err != nil {
					t.Fatal(err)
				}
				if !m.Total() || len(m.Interp().Undefined()) != 0 {
					t.Errorf("v0 least model %s: Total %v, undefined %v", m, m.Total(), m.Interp().Undefined())
				}
				sms, err := v0.StableModelsCtx(context.Background(), "m", stable.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if len(sms) != 1 || !sms[0].Total() {
					t.Errorf("v0 stable models %v: want one total model", sms)
				}
			}
			if computeFirst {
				check()
			}
			v1, err := e.Update(context.Background(), "m", []ast.Literal{lit(t, "p(zz)")})
			if err != nil {
				t.Fatal(err)
			}
			if n := v1.NumAtoms(); n != 4 {
				t.Fatalf("v1 NumAtoms = %d, want 4", n)
			}
			check()
		})
	}
}

// BenchmarkWriteThenRead is a read after a write on the policy tenant, with
// the serving benchmark's mixed-rw sizes and compaction cadence: one
// toggle of bad(cK), then on the version it published a point read
// -ok(cK) or a range read -ok(X). Each read derives the model from the
// previous version's.
func BenchmarkWriteThenRead(b *testing.B) {
	const kb, window, compactEvery = 1000, 128, 256
	for _, c := range []struct {
		name string
		goal func(k int) string
	}{
		{"point", func(k int) string { return fmt.Sprintf("-ok(c%d)", k) }},
		{"range", func(int) string { return "-ok(X)" }},
	} {
		b.Run(c.name, func(b *testing.B) {
			eng, err := NewEngineCtx(context.Background(), mustProgram(b, gen.PolicySource(kb)), Config{CompactEvery: compactEvery})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			facts := make([][]ast.Literal, window)
			queries := make([]ast.Query, window)
			for k := range facts {
				facts[k] = parseGoal(b, fmt.Sprintf("bad(c%d)", k)).Body
				queries[k] = parseGoal(b, c.goal(k))
			}
			live := make([]bool, window)
			if _, err := eng.Current().QueryCtx(ctx, "exc", queries[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i * 37) % window
				write := eng.Update
				if live[k] {
					write = eng.Retract
				}
				live[k] = !live[k]
				snap, err := write(ctx, "exc", facts[k])
				if err != nil {
					b.Fatal(err)
				}
				if _, err := snap.QueryCtx(ctx, "exc", queries[k]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
