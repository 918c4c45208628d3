package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/parser"
)

// A fallback reground must carry the reason the incremental path bailed,
// both in the trace line and in the labelled fallback counter.
func TestTraceCapturesRegroundReason(t *testing.T) {
	p, err := parser.ParseProgram(`
		module m {
			q(a). q(b).
			s(X) :- q(X).
			t(a). t(X).
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	e, err := NewEngineCtx(context.Background(), p, Config{}, WithTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Snap()
	// t(a) is pinned by the universal fact t(X): retraction cannot be
	// applied in place, so the engine regrounds with reason universal-fact.
	if _, err := e.Retract(context.Background(), "m", []ast.Literal{lit(t, "t(a)")}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mode=reground") {
		t.Fatalf("trace missing reground event:\n%s", out)
	}
	if !strings.Contains(out, "reason=universal-fact") {
		t.Fatalf("reground trace line drops the ErrNeedsReground cause:\n%s", out)
	}
	d := obs.Default().Snap().Diff(before)
	if d["core.update.fallback.universal-fact"] != 1 {
		t.Fatalf("fallback counter not labelled with reason: %v", d)
	}
	if d["core.updates.reground"] != 1 {
		t.Fatalf("reground counter = %d, want 1", d["core.updates.reground"])
	}
}

func TestTraceCapturesNegativeFactReason(t *testing.T) {
	var buf bytes.Buffer
	p, err := parser.ParseProgram(snapSrc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineCtx(context.Background(), p, Config{}, WithTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Update(context.Background(), "kb", []ast.Literal{lit(t, "-evil(a)")}); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "reason=negative-fact") {
		t.Fatalf("negative-fact assert should reground with its reason:\n%s", out)
	}
}

// Engine.Metrics exposes the process-global registry,
// and one incremental update moves the expected counters.
func TestMetricsAccessor(t *testing.T) {
	e := snapEngine(t)
	before := e.Metrics()
	v1, err := e.Update(context.Background(), "kb", []ast.Literal{lit(t, "p(c)")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v1.LeastModelCtx(context.Background(), "policy"); err != nil {
		t.Fatal(err)
	}
	d := e.Metrics().Diff(before)
	if d["core.updates"] != 1 || d["core.updates.incremental"] != 1 {
		t.Fatalf("update counters wrong: %v", d)
	}
	if d["ground.delta.asserts"] != 1 {
		t.Fatalf("delta assert counter = %d, want 1", d["ground.delta.asserts"])
	}
	if d["eval.fixpoints"] < 1 {
		t.Fatalf("least-model run did not count a fixpoint: %v", d)
	}
	if d["core.least.computed"] < 1 {
		t.Fatalf("least memo miss not counted: %v", d)
	}
	// Second read of the same memo is a hit.
	h0 := e.Metrics()["core.least.hits"]
	if _, err := v1.LeastModelCtx(context.Background(), "policy"); err != nil {
		t.Fatal(err)
	}
	if e.Metrics()["core.least.hits"] != h0+1 {
		t.Fatal("cached least model did not count a hit")
	}
}

// The disabled trace path must allocate nothing: one atomic load gates
// event construction entirely.
func TestTraceDisabledZeroAlloc(t *testing.T) {
	e := snapEngine(t) // no Trace writer
	n := int(testing.AllocsPerRun(1000, func() {
		if e.trace.Enabled() {
			e.trace.Emit(obs.E("update",
				obs.F("comp", "kb"),
				obs.F("mode", "incremental")))
		}
	}))
	if n != 0 {
		t.Fatalf("disabled trace path allocates %d objects per event, want 0", n)
	}
}

func BenchmarkTraceDisabled(b *testing.B) {
	p, err := parser.ParseProgram(snapSrc)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngineCtx(context.Background(), p, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.trace.Enabled() {
			e.trace.Emit(obs.E("least", obs.F("comp", "kb"), obs.F("version", 0)))
		}
	}
}

func BenchmarkTraceEnabled(b *testing.B) {
	p, err := parser.ParseProgram(snapSrc)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	e, err := NewEngineCtx(context.Background(), p, Config{}, WithTrace(&buf))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if e.trace.Enabled() {
			e.trace.Emit(obs.E("least", obs.F("comp", "kb"), obs.F("version", 0)))
		}
	}
}
