// Context-cancellation tests for the bounded worker pool: no items run
// under a dead context, and the sentinel unwraps to the context's cause.
package batch_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/batch"
	"repro/internal/interrupt"
)

// TestEachCtxPreCancelled: a dead context runs nothing and reports the
// sentinel, on both the sequential (one item) and pooled paths.
func TestEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{1, 16} {
		ran := 0
		err := batch.EachCtx(ctx, n, func(_, _ int) { ran++ })
		if !errors.Is(err, interrupt.ErrInterrupted) {
			t.Fatalf("n=%d: err = %v, want ErrInterrupted", n, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d: err = %v, want to unwrap to context.Canceled", n, err)
		}
		if ran != 0 {
			t.Fatalf("n=%d: %d items ran under a dead context", n, ran)
		}
	}
}
