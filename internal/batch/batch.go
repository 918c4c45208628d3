// Package batch provides a bounded worker pool for fanning independent
// engine work items across goroutines, plus a latency histogram (the obs
// registry, cmd/olpload) and the per-tenant admission semaphore
// (core.Registry). The pool is the building block behind
// core.Snapshot.QueryBatchCtx.
//
// The pool is deliberately simple: one goroutine per GOMAXPROCS, items
// handed out in index order. Work items must be independent; the engine's
// per-component singleflight caches make concurrent items that touch the
// same component cheap rather than racy. EachCtx stops handing out items
// once the context is cancelled: items already running finish, and
// nothing blocks past the cancellation.
package batch

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/interrupt"
)

// EachCtx runs fn(worker, i) for every i in [0, n) over a pool of
// GOMAXPROCS goroutines (fewer when n is smaller) and stops handing out
// items once ctx is cancelled. The worker index (in [0, workers)) supports
// per-worker accounting; items are handed out dynamically, so the mapping
// of items to workers is not deterministic. Items already handed out run
// to completion; the return value is nil when every item ran and an
// interrupt.Error (matching interrupt.ErrInterrupted) when the context cut
// the batch short.
func EachCtx(ctx context.Context, n int, fn func(worker, i int)) error {
	const stage = "batch: item hand-out"
	workers := min(runtime.GOMAXPROCS(0), n)
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
