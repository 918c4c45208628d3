// Cancellation and budget-exhaustion contract tests: the enumeration, run
// in-line or fanned out, must return partial model sets alongside the
// ErrBudget / interrupt.ErrInterrupted sentinels, never discarding work
// already done, and a cancelled context must stop the search within one
// DFS checkpoint.
package stable_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/interrupt"
	"repro/internal/oracle/naive"
	"repro/internal/stable"
	"repro/internal/transform"
	"repro/internal/workload"
)

// winMoveView builds the OV(win-move cycle) view used by the contract
// tests: even cycles have several assumption-free models, found early by
// the true-first branch order, so a small leaf budget yields a non-empty
// partial family.
func winMoveView(t testing.TB, n int) *eval.View {
	t.Helper()
	ov, err := transform.OV("c", workload.WinMove(workload.CycleEdges(n)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ground.GroundCtx(context.Background(), ov, ground.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v, err := naive.NewViewByName(g, "c")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestBudgetPartialContract: on budget exhaustion the enumeration returns
// the sentinel ErrBudget together with the models found so far, each of
// which is a genuine assumption-free model, and StableModelsCtx
// additionally filters the truncated family to its maximal elements. A
// fanned-out search returns the in-line partial lists exactly.
func TestBudgetPartialContract(t *testing.T) {
	v := winMoveView(t, 8)
	opts := stable.Options{MaxLeaves: 4}
	ctx := context.Background()

	af, err := stable.AssumptionFreeModelsCtx(ctx, v, opts)
	if !errors.Is(err, stable.ErrBudget) {
		t.Fatalf("af: err = %v, want ErrBudget", err)
	}
	if len(af) == 0 {
		t.Fatalf("af: no partial models alongside ErrBudget")
	}
	for _, m := range af {
		if !v.IsAssumptionFree(m) {
			t.Errorf("af: partial result %v is not assumption-free", m)
		}
	}

	st, err := stable.StableModelsCtx(ctx, v, opts)
	if !errors.Is(err, stable.ErrBudget) {
		t.Fatalf("stable: err = %v, want ErrBudget", err)
	}
	if len(st) == 0 {
		t.Fatalf("stable: no partial models alongside ErrBudget")
	}
	for i, m := range st {
		for j, o := range st {
			if i != j && m.ProperSubsetOf(o) {
				t.Errorf("stable: partial result %d not maximal within family", i)
			}
		}
	}

	for _, maximal := range []bool{false, true} {
		want := enumerate(v, opts, 1, maximal)
		for _, workers := range []int{2, 4, 8} {
			sameRun(t, fmt.Sprintf("maximal=%v workers=%d", maximal, workers), want, enumerate(v, opts, workers, maximal))
		}
	}
}

// TestCancelledContextUpfront: an already-cancelled context fails the
// enumeration immediately, in-line or fanned out, with an error matching
// both ErrInterrupted and context.Canceled; the partial model slice is
// empty.
func TestCancelledContextUpfront(t *testing.T) {
	v := winMoveView(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	check := func(what string, ms []*interp.Interp, err error) {
		t.Helper()
		if !errors.Is(err, interrupt.ErrInterrupted) {
			t.Fatalf("%s: err = %v, want ErrInterrupted", what, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want to unwrap to context.Canceled", what, err)
		}
		if len(ms) != 0 {
			t.Fatalf("%s: %d models from an enumeration that never ran", what, len(ms))
		}
	}
	for _, workers := range []int{1, 4} {
		restore := stable.SetFanOut(workers, 0)
		ms, err := stable.AssumptionFreeModelsCtx(ctx, v, stable.Options{})
		check(fmt.Sprintf("af workers=%d", workers), ms, err)
		ms, err = stable.StableModelsCtx(ctx, v, stable.Options{})
		check(fmt.Sprintf("stable workers=%d", workers), ms, err)
		if _, err := stable.ReasonCtx(ctx, v, stable.Options{}); !errors.Is(err, interrupt.ErrInterrupted) {
			t.Fatalf("ReasonCtx workers=%d: err = %v, want ErrInterrupted (no partial consequences)", workers, err)
		}
		restore()
	}
}

// TestDeadlineMidEnumeration: a deadline expiring mid-search stops the DFS
// within one checkpoint interval — far sooner than the full exhaustive
// search would finish — and the models already found survive alongside the
// ErrInterrupted error. A fanned-out search stops every worker before it
// returns: no goroutine outlives the call. NoPrune makes the n=12 search
// take hundreds of milliseconds, so a 50ms deadline reliably interrupts it.
func TestDeadlineMidEnumeration(t *testing.T) {
	v := winMoveView(t, 12)
	opts := stable.Options{NoPrune: true, MaxLeaves: 1 << 30}

	for _, workers := range []int{1, 4} {
		what := fmt.Sprintf("workers=%d", workers)
		restore := stable.SetFanOut(workers, 0)
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		ms, err := stable.AssumptionFreeModelsCtx(ctx, v, opts)
		elapsed := time.Since(start)
		cancel()
		restore()
		// A worker is counted until it exits, a moment after it signalled
		// the search; give the workers a bounded grace period.
		for grace := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(grace) {
				t.Fatalf("%s: %d goroutines after the search, %d before", what, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("%s: took %v, want the deadline to cut the search well under 2s", what, elapsed)
		}
		if err == nil {
			// The machine finished the whole search inside the deadline;
			// nothing to assert about interruption.
			t.Logf("%s: search finished before the deadline (%v)", what, elapsed)
			continue
		}
		if !errors.Is(err, interrupt.ErrInterrupted) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want ErrInterrupted unwrapping to DeadlineExceeded", what, err)
		}
		for _, m := range ms {
			if !v.IsAssumptionFree(m) {
				t.Errorf("%s: interrupted partial result is not assumption-free", what)
			}
		}
	}
}
