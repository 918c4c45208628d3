// Engine-level cancellation tests: the acceptance criteria of the
// cancellation contract. A deadline mid-enumeration returns ErrInterrupted
// with a non-nil partial model set well within one checkpoint interval; a
// cancelled batch neither blocks nor leaks goroutines; the singleflight
// least-model cache is not poisoned by an abandoned computation.
package core_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interrupt"
	"repro/internal/parser"
	"repro/internal/stable"
	"repro/internal/transform"
	"repro/internal/workload"
)

// winMoveEngine builds an engine over OV(win-move cycle n); component "c"
// carries the game, the CWA component sits above it.
func winMoveEngine(t *testing.T, n int) *core.Engine {
	t.Helper()
	ov, err := transform.OV("c", workload.WinMove(workload.CycleEdges(n)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ov, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineDeadlinePartialModels is the acceptance test of the contract:
// on a program whose exhaustive (NoPrune) search takes far longer than 2s,
// a 200ms deadline returns ErrInterrupted with a non-nil (possibly empty)
// model set, and the whole call finishes well under 2s.
func TestEngineDeadlinePartialModels(t *testing.T) {
	eng := winMoveEngine(t, 16)
	opts := stable.Options{NoPrune: true, MaxLeaves: 1 << 30}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	ms, err := eng.AssumptionFreeModelsCtx(ctx, "c", opts)
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("deadline call took %v, want well under 2s", elapsed)
	}
	if !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to unwrap to context.DeadlineExceeded", err)
	}
	if ms == nil {
		t.Fatalf("nil model slice alongside ErrInterrupted; want non-nil partial set")
	}
	for _, m := range ms {
		if !eng.CheckAssumptionFree(m) {
			t.Errorf("interrupted partial model is not assumption-free")
		}
	}
}

// TestEngineBudgetPartialAgreement: the engine-level ErrBudget contract —
// sentinel error, non-nil partial model set, every model sound — holds
// both in-line (GOMAXPROCS=1) and fanned out (GOMAXPROCS=2, n = 12), and
// the two return the same partial list.
func TestEngineBudgetPartialAgreement(t *testing.T) {
	eng := winMoveEngine(t, 12)
	opts := stable.Options{MaxLeaves: 4}
	var runs [2][]*core.Model
	for i, procs := range []int{1, 2} {
		var ms []*core.Model
		var err error
		atProcs(procs, func() { ms, err = eng.StableModelsCtx(context.Background(), "c", opts) })
		if !errors.Is(err, stable.ErrBudget) {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want ErrBudget", procs, err)
		}
		if len(ms) == 0 {
			t.Fatalf("GOMAXPROCS=%d: no partial models alongside ErrBudget", procs)
		}
		for _, m := range ms {
			if !eng.CheckAssumptionFree(m) {
				t.Errorf("GOMAXPROCS=%d: partial model is not assumption-free", procs)
			}
		}
		runs[i] = ms
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("partial lists: %d models in-line, %d fanned out", len(runs[0]), len(runs[1]))
	}
	for i := range runs[0] {
		if runs[0][i].String() != runs[1][i].String() {
			t.Fatalf("partial model %d: in-line %s, fanned out %s", i, runs[0][i], runs[1][i])
		}
	}
}

// TestLeastModelCacheNotPoisoned: a caller with a dead context fails with
// ErrInterrupted, but the singleflight cache stays clean — the next caller
// computes and caches the model as if the abandoned attempt never happened.
func TestLeastModelCacheNotPoisoned(t *testing.T) {
	eng := winMoveEngine(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.LeastModelCtx(ctx, "c"); !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("cancelled caller: err = %v, want ErrInterrupted", err)
	}
	m, err := eng.LeastModel("c")
	if err != nil || m == nil {
		t.Fatalf("after abandoned attempt: LeastModel = %v, %v; want the model", m, err)
	}
}

// TestLeastModelSingleflightConcurrentWaiters: concurrent callers on the
// same component share one computation; a waiter whose context dies mid-
// wait leaves with ErrInterrupted while the rest still get the model.
func TestLeastModelSingleflightConcurrentWaiters(t *testing.T) {
	eng := winMoveEngine(t, 10)
	liveCtx := context.Background()
	deadCtx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := liveCtx
			if i%2 == 1 {
				ctx = deadCtx
			}
			_, errs[i] = eng.LeastModelCtx(ctx, "c")
		}(i)
	}
	cancel()
	wg.Wait()
	for i, err := range errs {
		if i%2 == 0 {
			if err != nil {
				t.Errorf("live waiter %d: %v", i, err)
			}
		} else if err != nil && !errors.Is(err, interrupt.ErrInterrupted) {
			// A dead-context waiter may still win the race and get the
			// model; if it errors, the error must be the sentinel.
			t.Errorf("cancelled waiter %d: err = %v, want nil or ErrInterrupted", i, err)
		}
	}
}

// TestQueryBatchCancelNoGoroutineLeak cancels a batched query over every
// level of an inheritance hierarchy mid-flight and asserts (under -race in
// CI) that the call returns promptly, reports only nil or ErrInterrupted
// per item, that every finished item carries the sequential answers, and
// that every worker and detached singleflight goroutine exits.
func TestQueryBatchCancelNoGoroutineLeak(t *testing.T) {
	prog := workload.Inheritance(8, 8, 16)
	eng, err := core.NewEngine(prog, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewEngine(prog, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := parser.Parse("?- p0(X).")
	if err != nil {
		t.Fatal(err)
	}
	q := parsed.Queries[0]
	reqs := make([]core.QueryRequest, 0, 8)
	want := make([]int, 0, 8)
	for lvl := 0; lvl < 8; lvl++ {
		comp := "lvl" + string(rune('0'+lvl))
		reqs = append(reqs, core.QueryRequest{Comp: comp, Query: q})
		bindings, err := ref.Query(comp, q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, len(bindings))
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results := eng.QueryBatchCtx(ctx, reqs)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled batch took %v, want prompt return", elapsed)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results, want %d positional slots", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Err != nil && !errors.Is(r.Err, interrupt.ErrInterrupted) {
			t.Errorf("item %d: err = %v, want nil or ErrInterrupted", i, r.Err)
		}
		if r.Err == nil && len(r.Bindings) != want[i] {
			t.Errorf("item %d: %d bindings with nil error, want %d", i, len(r.Bindings), want[i])
		}
	}

	// The detached singleflight computations observe the cancellation at
	// their next checkpoint; give them a bounded grace period to exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after cancelled batch\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueryBatchCtxPreCancelled: a batch under an already-dead context
// reports an indexed interrupt error for every item and runs nothing.
func TestQueryBatchCtxPreCancelled(t *testing.T) {
	eng := engineOf(t, fig1)
	res, err := parser.Parse("?- fly(X).")
	if err != nil {
		t.Fatal(err)
	}
	q := res.Queries[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []core.QueryRequest{
		{Comp: "arctic", Query: q},
		{Comp: "arctic", Query: q},
		{Comp: "birds", Query: q},
	}
	results := eng.QueryBatchCtx(ctx, reqs)
	for i, r := range results {
		if !errors.Is(r.Err, interrupt.ErrInterrupted) {
			t.Errorf("item %d: err = %v, want ErrInterrupted", i, r.Err)
		}
		if r.Err != nil && !strings.Contains(r.Err.Error(), "item") {
			t.Errorf("item %d: error %q does not carry its item index", i, r.Err)
		}
	}
}

// TestProveCtxCancelled: goal-directed proving under a dead context fails
// with the sentinel both while queueing for the prover slot and inside the
// goal recursion.
func TestProveCtxCancelled(t *testing.T) {
	eng := engineOf(t, fig1)
	lit, err := parser.ParseLiteral("fly(pigeon)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.ProveCtx(ctx, "arctic", lit); !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("ProveCtx: err = %v, want ErrInterrupted", err)
	}
	// The prover slot must have been released (or never taken): a live
	// context proves normally afterwards.
	ok, err := eng.Prove("arctic", lit)
	if err != nil || !ok {
		t.Fatalf("Prove after cancelled attempt = %v, %v; want true", ok, err)
	}
}
