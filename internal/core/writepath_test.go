package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/interrupt"
	"repro/internal/obs"
	"repro/internal/parser"
)

// writePathSrc keeps both constants in q/1, so retracting p(a) or p(b)
// never removes a constant's last fact: those writes stay incremental.
const writePathSrc = `
	module kb {
		p(a). p(b). q(a). q(b).
		bad(X) :- evil(X).
	}
	module policy extends kb {
		ok(X) :- p(X).
	}
	module exc extends policy {
		-ok(X) :- bad(X).
	}
`

func writePathEngine(t *testing.T, cfg Config, opts ...Option) *Engine {
	t.Helper()
	p, err := parser.ParseProgram(writePathSrc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineCtx(context.Background(), p, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// A reconstruction of a past version accepts writes through its own
// engine: its fact liveness is that version's, not the source's, and
// extending its history leaves the engine it came from untouched.
func TestAsOfSnapshotAcceptsWrites(t *testing.T) {
	e := snapEngine(t)
	ctx := context.Background()
	steps := []struct {
		retract bool
		fact    string
	}{{false, "p(c)"}, {true, "p(a)"}, {false, "p(d)"}}
	for _, s := range steps {
		var err error
		if s.retract {
			_, err = e.Retract(ctx, "kb", []ast.Literal{lit(t, s.fact)})
		} else {
			_, err = e.Update(ctx, "kb", []ast.Literal{lit(t, s.fact)})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	past, err := e.AsOfCtx(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	sub := past.Engine()
	if sub == e {
		t.Fatal("a reconstruction must belong to its own engine")
	}
	// p(c) was asserted at v1: re-asserting it there changes nothing.
	same, err := sub.Update(ctx, "kb", []ast.Literal{lit(t, "p(c)")})
	if err != nil {
		t.Fatal(err)
	}
	if same != past || same.Version() != 1 {
		t.Fatalf("re-asserting a fact live at v1 published v%d, want the v1 snapshot back", same.Version())
	}
	// Retracting it publishes v2 of the reconstruction without it.
	next, err := sub.Retract(ctx, "kb", []ast.Literal{lit(t, "p(c)")})
	if err != nil {
		t.Fatal(err)
	}
	if next.Version() != 2 {
		t.Fatalf("retract through the reconstruction published v%d, want v2", next.Version())
	}
	if holdsIn(t, next, "policy", "ok(c)") || !holdsIn(t, next, "policy", "ok(a)") {
		t.Fatal("the reconstruction's v2 must lack p(c) and keep p(a)")
	}
	// The original engine's history is intact: rebuilding its tip from
	// that history still has p(a) retracted and p(c), p(d) asserted.
	if v := e.Current().Version(); v != 3 {
		t.Fatalf("original engine moved to v%d", v)
	}
	tip, err := e.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if holdsIn(t, tip, "policy", "ok(a)") || !holdsIn(t, tip, "policy", "ok(c)") || !holdsIn(t, tip, "policy", "ok(d)") {
		t.Fatal("a write through a reconstruction changed the original engine's history")
	}
}

// A write that fails after extending the history publishes nothing: the
// pinned version keeps its history length and its reconstruction, the
// next write does not inherit the failed events, and retrying succeeds.
func TestFailedUpdateLeavesHistory(t *testing.T) {
	e := snapEngine(t)
	ctx := context.Background()
	pinned, err := e.Update(ctx, "kb", []ast.Literal{lit(t, "p(c)")})
	if err != nil {
		t.Fatal(err)
	}
	n := pinned.NumLogEvents()
	// p(a) holds the constant a's last fact, so its retract regrounds; the
	// cancelled context fails that reground.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.Retract(cancelled, "kb", []ast.Literal{lit(t, "p(a)")}); !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("retract under a cancelled context: %v, want an interruption", err)
	}
	if e.Current() != pinned {
		t.Fatal("a failed update published a version")
	}
	v2, err := e.Update(ctx, "kb", []ast.Literal{lit(t, "p(d)")})
	if err != nil {
		t.Fatal(err)
	}
	v3, err := e.Retract(ctx, "kb", []ast.Literal{lit(t, "p(a)")})
	if err != nil {
		t.Fatal(err)
	}
	if got := pinned.NumLogEvents(); got != n {
		t.Fatalf("pinned v%d's history grew from %d to %d events", pinned.Version(), n, got)
	}
	past, err := e.AsOfCtx(ctx, pinned.Version())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := leastOf(t, past), leastOf(t, pinned); got != want {
		t.Fatalf("AsOf(v%d) diverged from the pinned snapshot:\n%s\nwant:\n%s", pinned.Version(), got, want)
	}
	mid, err := e.AsOfCtx(ctx, v2.Version())
	if err != nil {
		t.Fatal(err)
	}
	if !holdsIn(t, mid, "policy", "ok(a)") || !holdsIn(t, mid, "policy", "ok(d)") {
		t.Fatal("v2 inherited the failed retract of p(a)")
	}
	if holdsIn(t, v3, "policy", "ok(a)") || !holdsIn(t, v3, "policy", "ok(c)") {
		t.Fatal("the retried retract did not take effect")
	}
}

// A cheap write allocates the same whatever the length of the history
// behind it: no write copies the history or the fact liveness.
func TestWriteCostIndependentOfHistory(t *testing.T) {
	e := writePathEngine(t, Config{})
	ctx := context.Background()
	facts := []ast.Literal{lit(t, "p(a)"), lit(t, "p(b)")}
	live := []bool{true, true}
	i := 0
	write := func() {
		k := i % 2
		var err error
		if live[k] {
			_, err = e.Retract(ctx, "kb", facts[k:k+1])
		} else {
			_, err = e.Update(ctx, "kb", facts[k:k+1])
		}
		if err != nil {
			t.Fatal(err)
		}
		live[k] = !live[k]
		i++
	}
	perWrite := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < 20; j++ {
			write()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 20
	}
	for e.Current().NumLogEvents() < 20 {
		write()
	}
	short := perWrite()
	for e.Current().NumLogEvents() < 340 {
		write()
	}
	long := perWrite()
	if n := e.Current().NumLogEvents(); n < 340 {
		t.Fatalf("history holds %d events: the writes were not recorded", n)
	}
	t.Logf("bytes per write: %d at ~20 events, %d at ~340", short, long)
	if float64(long) > 1.5*float64(short) {
		t.Fatalf("a write allocates %d bytes at ~340 history events against %d at ~20: its cost grows with the history", long, short)
	}
}

// Every kind of publication is counted and traced once, under its own
// mode: a no-op, an incremental write, a reground, a cadence compaction
// of an incremental child and of a reground, a ratio compaction and an
// explicit Compact.
func TestUpdateModeAccounting(t *testing.T) {
	var buf bytes.Buffer
	e := writePathEngine(t, Config{CompactEvery: 3, CompactRatio: 0.15}, WithTrace(&buf))
	ctx := context.Background()
	counters := []string{
		"core.updates", "core.updates.incremental", "core.updates.reground",
		"update.compact.runs", "update.compact.dead_dropped", "update.compact.events_collapsed",
	}
	type step struct {
		name    string
		run     func() (*Snapshot, error)
		deltas  map[string]int64 // counters absent here must not move
		reason  string           // the one core.update.fallback.<reason> bumped
		trace   string           // the step's trace line holds this; "" = no line
		events  int              // NumLogEvents after the step
		dead    int              // NumDeadRules after the step
		version uint64
	}
	assert := func(f string) func() (*Snapshot, error) {
		return func() (*Snapshot, error) { return e.Update(ctx, "kb", []ast.Literal{lit(t, f)}) }
	}
	retract := func(fs ...string) func() (*Snapshot, error) {
		return func() (*Snapshot, error) {
			lits := make([]ast.Literal, len(fs))
			for i, f := range fs {
				lits[i] = lit(t, f)
			}
			return e.Retract(ctx, "kb", lits)
		}
	}
	steps := []step{
		{name: "no-op", run: assert("p(a)"), version: 0},
		{name: "incremental", run: retract("p(a)"),
			deltas: map[string]int64{"core.updates": 1, "core.updates.incremental": 1},
			trace:  "mode=incremental", events: 1, dead: 1, version: 1},
		{name: "reground", run: assert("-evil(a)"),
			deltas: map[string]int64{"core.updates": 1, "core.updates.reground": 1},
			reason: "negative-fact", trace: "mode=reground reason=negative-fact", events: 2, version: 2},
		// The third write since the last rebuild crosses CompactEvery: the
		// incremental child is replaced by a compacted rebuild, and the
		// history [-p(a), -evil(a), +p(a)] collapses by one event.
		{name: "cadence compaction of an incremental child", run: assert("p(a)"),
			deltas: map[string]int64{"core.updates": 1, "core.updates.incremental": 1, "update.compact.runs": 1, "update.compact.events_collapsed": 1},
			trace:  "mode=compact", events: 2, version: 3},
		{name: "incremental retract", run: retract("p(b)"),
			deltas: map[string]int64{"core.updates": 1, "core.updates.incremental": 1},
			trace:  "mode=incremental", events: 3, dead: 1, version: 4},
		{name: "incremental resurrection", run: assert("p(b)"),
			deltas: map[string]int64{"core.updates": 1, "core.updates.incremental": 1},
			trace:  "mode=incremental", events: 4, version: 5},
		// A reground crossing the cadence collapses the history as part of
		// the rebuild: [-evil(a), +p(a), -p(b), +p(b), -evil(b)] keeps 4.
		{name: "cadence compaction of a reground", run: assert("-evil(b)"),
			deltas: map[string]int64{"core.updates": 1, "core.updates.reground": 1, "update.compact.runs": 1, "update.compact.events_collapsed": 1},
			reason: "negative-fact", trace: "mode=compact reason=negative-fact", events: 4, version: 6},
		// Two dead fact instances cross CompactRatio on the first write
		// after the rebuild; [-evil(a), +p(a), +p(b), -evil(b), -p(a), -p(b)]
		// keeps 4.
		{name: "ratio compaction", run: retract("p(a)", "p(b)"),
			deltas: map[string]int64{"core.updates": 1, "core.updates.incremental": 1, "update.compact.runs": 1, "update.compact.dead_dropped": 2, "update.compact.events_collapsed": 2},
			trace:  "mode=compact", events: 4, version: 7},
		{name: "incremental assert", run: assert("p(a)"),
			deltas: map[string]int64{"core.updates": 1, "core.updates.incremental": 1},
			trace:  "mode=incremental", events: 5, version: 8},
		{name: "incremental retract again", run: retract("p(a)"),
			deltas: map[string]int64{"core.updates": 1, "core.updates.incremental": 1},
			trace:  "mode=incremental", events: 6, dead: 1, version: 9},
		{name: "explicit compact", run: func() (*Snapshot, error) { return e.Compact(ctx) },
			deltas: map[string]int64{"update.compact.runs": 1, "update.compact.dead_dropped": 1, "update.compact.events_collapsed": 2},
			trace:  "compact: version=9 dead_dropped=1 events_collapsed=2", events: 4, version: 9},
	}
	for _, s := range steps {
		before := obs.Default().Snap()
		buf.Reset()
		snap, err := s.run()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		d := obs.Default().Snap().Diff(before)
		for _, c := range counters {
			if d[c] != s.deltas[c] {
				t.Errorf("%s: %s moved by %d, want %d", s.name, c, d[c], s.deltas[c])
			}
		}
		for name, v := range d {
			if !strings.HasPrefix(name, "core.update.fallback.") {
				continue
			}
			want := int64(0)
			if name == "core.update.fallback."+s.reason {
				want = 1
			}
			if v != want {
				t.Errorf("%s: %s moved by %d, want %d", s.name, name, v, want)
			}
		}
		if s.reason != "" && d["core.update.fallback."+s.reason] != 1 {
			t.Errorf("%s: core.update.fallback.%s did not move", s.name, s.reason)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		switch {
		case s.trace == "" && buf.Len() > 0:
			t.Errorf("%s: traced %q, want nothing", s.name, buf.String())
		case s.trace != "" && (len(lines) != 1 || !strings.Contains(lines[0], s.trace)):
			t.Errorf("%s: traced %q, want one line holding %q", s.name, buf.String(), s.trace)
		case s.trace != "" && !strings.Contains(s.trace, "reason=") && strings.Contains(lines[0], "reason="):
			t.Errorf("%s: traced a fallback reason on %q", s.name, lines[0])
		}
		if snap.Version() != s.version || snap != e.Current() {
			t.Errorf("%s: returned v%d (current v%d), want v%d", s.name, snap.Version(), e.Current().Version(), s.version)
		}
		if n := snap.NumLogEvents(); n != s.events {
			t.Errorf("%s: %d history events, want %d", s.name, n, s.events)
		}
		if n := snap.NumDeadRules(); n != s.dead {
			t.Errorf("%s: %d dead rules, want %d", s.name, n, s.dead)
		}
		if t.Failed() {
			t.Fatalf("stopped after step %q (rules %d live, %d dead)", s.name, snap.NumGroundRules(), snap.NumDeadRules())
		}
	}
}
