// Pins on what the grounder's competitor pass and update path cost, in
// units that do not depend on the host: allocations per emitted instance,
// targets and candidate rules visited, and pre-existing targets a universe
// growth re-enumerates.
package ground

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/interrupt"
	"repro/internal/obs"
)

// TestGroundAllocsPerInstance: grounding the policy program allocates a
// bounded number of times per emitted instance, and the same bound holds
// at every size — grounding is linear in the program. (Before the fact
// path, the scratch substitutions and the arenas it was 15.6 per instance;
// before the join kernel bound term ids in frames and the atom table keyed
// atoms by ids, 2.7; before facts were seeded as tuples, 0.32; before
// instances and targets became chunked id columns, 0.209. The bound is the
// kb=500 measurement, 0.207, plus 10 %.)
func TestGroundAllocsPerInstance(t *testing.T) {
	const maxPerInstance = 0.227
	for _, kb := range []int{500, 1000, 2000} {
		p := policyProgram(t, kb)
		var instances int
		allocs := testing.AllocsPerRun(3, func() {
			gp, err := GroundCtx(context.Background(), p, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			instances = gp.Rules.Len()
		})
		if instances < 3*kb {
			t.Fatalf("kb=%d: %d instances, want at least %d", kb, instances, 3*kb)
		}
		if per := allocs / float64(instances); per > maxPerInstance {
			t.Fatalf("kb=%d: %.0f allocs for %d instances = %.3f per instance, want <= %.3f", kb, allocs, instances, per, maxPerInstance)
		}
	}
}

// TestGroundBytesPerInstance: grounding the policy program at kb = 1 000
// allocates a bounded number of bytes per emitted instance. (Before the
// join kernel it was 1 145, before facts were seeded as tuples 830, before
// instances became chunked id columns and the atom table stopped keeping
// an ast.Atom per atom 635, before the dedup sets became term.Index 379;
// the bound is the measured 282 plus 10 %.)
func TestGroundBytesPerInstance(t *testing.T) {
	const (
		kb             = 1000
		runs           = 5
		maxPerInstance = 310.0
	)
	p := policyProgram(t, kb)
	gp, err := GroundCtx(context.Background(), p, DefaultOptions()) // warm: first-use allocations stay out
	if err != nil {
		t.Fatal(err)
	}
	instances := gp.Rules.Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := GroundCtx(context.Background(), p, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(instances); per > maxPerInstance {
		t.Fatalf("kb=%d: %.0f bytes per instance over %d instances, want <= %.0f", kb, per, instances, maxPerInstance)
	}
}

// TestGroundScannableBytes: grounding the reads tenant in full adds a
// bounded number of bytes per instance to the heap the garbage collector
// scans (runtime/metrics /gc/scan/heap:bytes), with the program kept live:
// instances, atoms and competitor targets are id columns, so a collection
// cycle does not trace them. (While they were records with pointers —
// ground.Rule, ast.Atom, *target — it was 223; the bound is the measured
// 2.4 plus 10 %.)
func TestGroundScannableBytes(t *testing.T) {
	const maxPerInstance = 2.64
	p := readsProgram(t, 400, 100)
	before := scannableHeap()
	gp, err := GroundCtx(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	after := scannableHeap()
	n := gp.Rules.Len()
	runtime.KeepAlive(gp)
	if per := float64(after-before) / float64(n); per > maxPerInstance {
		t.Fatalf("%d instances add %d scannable bytes = %.1f per instance, want <= %.2f", n, after-before, per, maxPerInstance)
	}
}

// TestGroundResidentBytes: grounding the reads tenant in full adds a
// bounded number of live heap bytes per instance (HeapAlloc after a
// collection, with the program kept live) — the ground program's resident
// cost: instances, atoms and their keys, the possible-atom relations and
// the dedup indexes. (While the three dedup sets were Go maps from hash to
// id with a collision chain it was 202.7; the bound is the measured 123.2
// plus 10 %.)
func TestGroundResidentBytes(t *testing.T) {
	const maxPerInstance = 136.0
	p := readsProgram(t, 400, 100)
	before := liveHeap()
	gp, err := GroundCtx(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	n := gp.Rules.Len()
	runtime.KeepAlive(gp)
	per := float64(after-before) / float64(n)
	if per > maxPerInstance {
		t.Fatalf("%d instances add %d live bytes = %.1f per instance, want <= %.0f", n, after-before, per, maxPerInstance)
	}
}

// liveHeap collects and returns the bytes of live heap objects.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// scannableHeap collects and returns the bytes of the heap the collector
// scans.
func scannableHeap() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// counterDelta runs fn and returns what it added to the registry.
func counterDelta(t *testing.T, fn func()) obs.Snap {
	t.Helper()
	if !obs.On() {
		t.Skip("metrics registry disabled")
	}
	before := obs.Default().Snap()
	fn()
	return obs.Default().Snap().Diff(before)
}

func wantCounters(t *testing.T, what string, d obs.Snap, want map[string]int64) {
	t.Helper()
	for name, n := range want {
		if got := d[name]; got != n {
			t.Errorf("%s: %s = %d, want %d", what, name, got, n)
		}
	}
}

// TestPhaseCountersWithinWall: a grounding run charges each of its four
// phases, and the phase times add up to no more than the run's wall time.
func TestPhaseCountersWithinWall(t *testing.T) {
	p := policyProgram(t, 1000)
	var wall time.Duration
	d := counterDelta(t, func() {
		start := time.Now()
		if _, err := GroundCtx(context.Background(), p, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		wall = time.Since(start)
	})
	var sum int64
	for _, phase := range []string{"universe", "prep", "fireable", "competitor"} {
		us := d["ground.phase_us."+phase]
		if us <= 0 {
			t.Errorf("ground.phase_us.%s = %d, want the phase charged", phase, us)
		}
		sum += us
	}
	if sum > wall.Microseconds() {
		t.Errorf("phase times sum to %d us, more than the run's wall time of %d us", sum, wall.Microseconds())
	}
}

// TestGrowthTouchesNoOldTarget: asserting a fact with a fresh constant into
// the policy program visits the two targets the assert itself creates —
// bad(k0) and -ok(k0) — and re-enumerates none of the 2 000 that existed:
// no rule of that program has an open variable.
func TestGrowthTouchesNoOldTarget(t *testing.T) {
	p := policyProgram(t, 1000)
	gp, err := GroundCtx(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := p.ComponentIndex("exc")
	d := counterDelta(t, func() {
		if _, err := gp.AssertFacts(context.Background(), comp, goalLits(t, "bad(k0)")); err != nil {
			t.Fatal(err)
		}
	})
	wantCounters(t, "assert bad(k0)", d, map[string]int64{
		"ground.delta.growth":           1,
		"ground.delta.growth_revisited": 0,
		"ground.competitor.targets":     2,
		"ground.competitor.candidates":  0, // ok(X) :- p(X) sits above exc: it cannot compete with -ok(k0)
	})
}

// TestCompetitorCounters: the competitor pass's counters are exact and
// count candidates off the head index: one rule per ok(cI) target on the
// policy program, where a component scan would have matched every target
// against every rule.
func TestCompetitorCounters(t *testing.T) {
	const kb = 50
	p := policyProgram(t, kb)
	d := counterDelta(t, func() {
		if _, err := GroundCtx(context.Background(), p, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	wantCounters(t, fmt.Sprintf("policy kb=%d", kb), d, map[string]int64{
		"ground.competitor.targets":    2 * kb, // p(cI) and ok(cI)
		"ground.competitor.candidates": kb,     // -ok(X) :- bad(X) per ok(cI)
		"ground.delta.growth":          0,
	})

	// One rule with an open variable: growth revisits the one pre-existing
	// target it competes against, for the new constant only.
	q := parse(t, `
module base { r(a, b). q(X) :- r(X, Y). }
module exc extends base { -q(X) :- r(X, Y). }
`)
	var gp *Program
	d = counterDelta(t, func() {
		var err error
		if gp, err = GroundCtx(context.Background(), q, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	wantCounters(t, "open-variable program", d, map[string]int64{
		"ground.competitor.targets":    3, // r(a, b), q(a), -q(a)
		"ground.competitor.candidates": 1, // -q(X) :- r(X, Y) against q(a); base cannot compete with exc's -q(a)
	})
	comp, _ := q.ComponentIndex("base")
	before := gp.Rules.Len()
	d = counterDelta(t, func() {
		if _, err := gp.AssertFacts(context.Background(), comp, goalLits(t, "r(b, k)")); err != nil {
			t.Fatal(err)
		}
	})
	wantCounters(t, "assert r(b, k)", d, map[string]int64{
		"ground.delta.growth":           1,
		"ground.delta.growth_revisited": 1, // q(a); -q(a) is visited but no rule can compete with it
		"ground.competitor.targets":     5, // r(b, k), q(b), -q(b) in full; q(a), -q(a) for the new constant
		"ground.competitor.candidates":  2, // -q(X) :- r(X, Y) against q(b) and against q(a)
	})
	// r(b, k); q(b) :- r(b, k); -q(b) :- r(b, Y) for three Y; -q(a) :- r(a, k).
	if got := gp.Rules.Len() - before; got != 6 {
		t.Errorf("assert r(b, k) appended %d instances, want 6", got)
	}
}

// TestGrowthOrderDeterministic: two identical sequences of universe-growing
// updates yield identical Rules sequences — the growth path walks targets
// in registration order, not in map order.
func TestGrowthOrderDeterministic(t *testing.T) {
	run := func() *Program {
		p := parse(t, growthProgram)
		gp, err := GroundCtx(context.Background(), p, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		comp, _ := p.ComponentIndex("base")
		for i, batch := range [][]string{
			{"w(k1)"}, {"r(k2, a)", "s(a, k3)"}, {"r(c, k4)", "w(b)"}, {"s(k5, k6)", "r(k6, k7)", "w(k7)"},
		} {
			d, err := gp.AssertFacts(context.Background(), comp, goalLits(t, batch...))
			if err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			if d.NewLen-d.OldLen <= len(batch) {
				t.Fatalf("batch %d appended %d instances: growth emitted no competitor instance to order", i, d.NewLen-d.OldLen)
			}
		}
		return gp
	}
	first := run()
	for i := 1; i < 10; i++ {
		sameRuleSequence(t, fmt.Sprintf("run %d", i), run(), first, false) // separate parses
	}
}

// countdownCtx is a context that reports cancellation from its n-th Err
// poll on: it cancels an update at exactly one of its checkpoints.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestGrowthAssertCancelledAtEveryCheckpoint: a universe-growing assert
// cancelled at its k-th checkpoint, for every k until it runs through,
// returns the interrupt, poisons the incremental state (so the next update
// regrounds) and never publishes a longer Rules; among the checkpoints are
// the competitor pass's per-target polls, for the grown targets and for the
// revisited ones.
func TestGrowthAssertCancelledAtEveryCheckpoint(t *testing.T) {
	batch := []string{"r(k1, a)", "s(a, k2)", "w(k2)"}
	stages := make(map[string]int)
	for k := 0; ; k++ {
		p := parse(t, growthProgram)
		gp, err := GroundCtx(context.Background(), p, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		comp, _ := p.ComponentIndex("base")
		before := gp.Rules.Len()
		_, err = gp.AssertFacts(&countdownCtx{Context: context.Background(), left: k}, comp, goalLits(t, batch...))
		if err == nil {
			if k == 0 {
				t.Fatal("the assert polled its context not once")
			}
			break
		}
		var ie *interrupt.Error
		if !errors.As(err, &ie) || !errors.Is(err, context.Canceled) {
			t.Fatalf("checkpoint %d: err = %v, want an interrupt unwrapping to context.Canceled", k, err)
		}
		stages[ie.Stage]++
		if gp.Incremental() || gp.Rules.Len() != before {
			t.Fatalf("checkpoint %d (%s): incremental=%v, %d rules published (was %d)", k, ie.Stage, gp.Incremental(), gp.Rules.Len(), before)
		}
		if _, err := gp.AssertFacts(context.Background(), comp, goalLits(t, "w(a)")); RegroundReason(err) != "poisoned" {
			t.Fatalf("checkpoint %d: update after the cancelled one: err = %v, want the poisoned fallback", k, err)
		}
	}
	// Grown targets: r(k1,a), s(a,k2), w(k2), q(k1), u(k1), u(k2) and the
	// heads the new facts derive; revisited: the pre-existing q/1 and t/1
	// targets. Both loops poll per target.
	if n := stages["ground: competitor pass"]; n < 8 {
		t.Fatalf("the competitor pass polled %d times (stages seen: %v), want one poll per grown and per revisited target", n, stages)
	}
	if stages["ground: delta fixpoint"] == 0 {
		t.Fatalf("stages seen: %v, want the delta fixpoint among them", stages)
	}
}
