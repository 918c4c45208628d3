// Cancellation checkpoints of the fixpoint evaluators: a dead context
// fails immediately with the interrupt sentinel, a live one is unaffected.
package eval_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ground"
	"repro/internal/interrupt"
	"repro/internal/oracle/naive"
)

func TestLeastModelCtxCancelled(t *testing.T) {
	v := view(t, fig1, "c1", ground.ModeSmart)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := v.LeastModelCtx(ctx)
	if !errors.Is(err, interrupt.ErrInterrupted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("LeastModelCtx: err = %v, want ErrInterrupted unwrapping to context.Canceled", err)
	}
	if m != nil {
		t.Fatalf("LeastModelCtx: partial interpretation returned alongside the interrupt")
	}
	if _, err := naive.LeastModelNaiveCtx(ctx, v); !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("LeastModelNaiveCtx: err = %v, want ErrInterrupted", err)
	}
	// No partial interpretation accompanies the error: a truncated prefix
	// of lfp(V) is not a model of anything.
	m, err = v.LeastModelCtx(context.Background())
	if err != nil || m == nil {
		t.Fatalf("live context after abandoned attempts: %v, %v", m, err)
	}
}
