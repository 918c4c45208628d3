package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/interrupt"
)

// lazyCell is a context-aware singleflight memo for one expensive artifact
// (a component's least model, a goal slice's grounding). States: idle
// (done == nil, !ready), running (done != nil), ready (ready == true; v/err
// cached forever). A run executes on a private context detached from any
// caller; each waiter selects on its own context and the run's done
// channel. The last waiter to abandon a run cancels it; an interrupted run
// resets the cell to idle instead of caching the interruption, so the next
// caller simply retries.
type lazyCell[T any] struct {
	mu      sync.Mutex
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	ready   bool
	v       T
	err     error
}

// peek returns the cached value when a run has completed without error,
// never starting or waiting for one.
func (c *lazyCell[T]) peek() (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ready && c.err == nil {
		return c.v, true
	}
	var zero T
	return zero, false
}

// get returns the cached value, parking on an in-flight computation or
// starting one with compute. stage names the wait in interruption errors.
// note, when non-nil, receives singleflight accounting events: "hit" (the
// caller found the result cached without starting or waiting), "waited"
// (it parked on someone else's run), "computed" (a run cached its result —
// reported by the starter's note, possibly under the cell mutex, so keep
// it cheap and non-reentrant).
func (c *lazyCell[T]) get(ctx context.Context, stage string, compute func(context.Context) (T, error), note func(kind string)) (T, error) {
	var zero T
	started, waited := false, false
	for {
		c.mu.Lock()
		if c.ready {
			v, err := c.v, c.err
			c.mu.Unlock()
			if note != nil && !started && !waited {
				note("hit")
			}
			return v, err
		}
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return zero, &interrupt.Error{Stage: stage, Cause: err}
		}
		if c.done == nil {
			started = true
			// Start the computation on a context detached from any one
			// caller: its lifetime is "some waiter still wants this".
			runCtx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			c.done, c.cancel = done, cancel
			go func() {
				v, err := compute(runCtx)
				c.mu.Lock()
				if err != nil && errors.Is(err, interrupt.ErrInterrupted) {
					// Abandoned run: reset to idle rather than caching the
					// interruption — the result is a property of the
					// program, not of the callers that gave up on it.
					c.done, c.cancel = nil, nil
				} else {
					c.ready, c.v, c.err = true, v, err
					c.done, c.cancel = nil, nil
					if note != nil {
						note("computed")
					}
				}
				c.mu.Unlock()
				cancel()
				close(done)
			}()
		}
		done, cancel := c.done, c.cancel
		c.waiters++
		c.mu.Unlock()
		if note != nil && !started && !waited {
			note("waited")
		}
		waited = true

		select {
		case <-done:
			c.mu.Lock()
			c.waiters--
			c.mu.Unlock()
			// Loop: read the cached result, or retry after an abandoned run.
		case <-ctx.Done():
			c.mu.Lock()
			c.waiters--
			if c.waiters == 0 && c.done == done {
				// Last interested caller is gone: stop the computation. The
				// run observes the cancellation at its next checkpoint and
				// resets the cell (unless it finished first, in which case
				// the result is cached anyway).
				cancel()
			}
			c.mu.Unlock()
			return zero, &interrupt.Error{Stage: stage, Cause: ctx.Err()}
		}
	}
}
