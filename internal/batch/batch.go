// Package batch provides a bounded worker pool for fanning independent
// engine work items — least-model computations, conjunctive queries,
// stable enumerations — across goroutines, plus a latency histogram for
// load reporting (cmd/olpload, the obs registry). It is the building block
// behind core.Engine.QueryBatch and core.Engine.ProveBatch.
//
// The pool is deliberately simple: item order in, result order out. Work
// items must be independent; the engine's per-component singleflight
// caches make concurrent items that touch the same component cheap rather
// than racy. The ...Ctx variants stop handing out items once the context
// is cancelled: items already running finish, items never started are
// reported as interrupted, and nothing blocks past the cancellation.
package batch

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/interrupt"
)

// Options configures a batch run.
type Options struct {
	// Workers is the number of goroutines (0 or negative = GOMAXPROCS).
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// EachCtx runs fn(worker, i) for every i in [0, n) over a bounded pool and
// stops handing out items once ctx is cancelled. The worker index (in
// [0, workers)) supports per-worker accounting; items are handed out
// dynamically, so the mapping of items to workers is not deterministic.
// Items already handed out run to completion; the return value is nil when
// every item ran and an interrupt.Error (matching interrupt.ErrInterrupted)
// when the context cut the batch short.
func EachCtx(ctx context.Context, n int, opts Options, fn func(worker, i int)) error {
	const stage = "batch: item hand-out"
	workers := opts.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := interrupt.Check(ctx, stage); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}
	var next int
	var mu sync.Mutex
	take := func() (int, bool) {
		if ctx.Err() != nil {
			return 0, false
		}
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	return interrupt.Check(ctx, stage)
}

// Map applies fn to every item over a bounded pool and returns the results
// and errors in input order. A non-nil error for one item does not stop
// the others; per-item errors are wrapped with the item index
// ("item %d: ...") so a failure inside a large batch stays diagnosable.
func Map[T, R any](items []T, opts Options, fn func(item T) (R, error)) ([]R, []error) {
	return MapCtx(context.Background(), items, opts, fn)
}

// MapCtx is Map with cancellation: once ctx is cancelled no further items
// start, and every item that never ran gets an interrupt.Error (wrapped
// with its index) in its error slot. Results of items that did run are
// kept — the batch degrades to partial results rather than discarding
// finished work.
func MapCtx[T, R any](ctx context.Context, items []T, opts Options, fn func(item T) (R, error)) ([]R, []error) {
	results := make([]R, len(items))
	errs := make([]error, len(items))
	ran := make([]bool, len(items))
	batchErr := EachCtx(ctx, len(items), opts, func(_, i int) {
		ran[i] = true
		r, err := fn(items[i])
		results[i] = r
		if err != nil {
			errs[i] = fmt.Errorf("item %d: %w", i, err)
		}
	})
	if batchErr != nil {
		for i := range items {
			if !ran[i] {
				errs[i] = fmt.Errorf("item %d: %w", i, batchErr)
			}
		}
	}
	return results, errs
}

// FirstError returns the first non-nil error of a Map error slice.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
