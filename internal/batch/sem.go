package batch

import (
	"context"
	"sync/atomic"

	"repro/internal/interrupt"
)

// Semaphore is a bounded in-flight semaphore: the admission-control
// building block of the serving layer. A server gives each tenant one
// Semaphore sized to the work it may have in flight at once; requests
// Acquire a slot before touching the engine and Release it when done, so
// a burst against one tenant queues (up to each request's own deadline)
// instead of piling unbounded goroutines onto the evaluator.
//
// The zero bound means "unbounded": every Acquire succeeds immediately.
// That keeps call sites branch-free when admission control is disabled,
// and the in-flight count still tracks the holders for observability.
type Semaphore struct {
	slots chan struct{}
	held  atomic.Int64
}

// NewSemaphore returns a semaphore admitting at most n concurrent holders;
// n <= 0 means unbounded.
func NewSemaphore(n int) *Semaphore {
	if n <= 0 {
		return &Semaphore{}
	}
	return &Semaphore{slots: make(chan struct{}, n)}
}

// TryAcquire takes a slot without blocking, reporting whether it got one.
func (s *Semaphore) TryAcquire() bool {
	if s.slots != nil {
		select {
		case s.slots <- struct{}{}:
		default:
			return false
		}
	}
	s.held.Add(1)
	return true
}

// Acquire takes a slot, waiting until one frees up or ctx dies. The error
// follows the engine-wide cancellation contract: nil on success, an
// interrupt.Error (matching interrupt.ErrInterrupted) when the context cut
// the wait short. A free slot admits instantly even under a context that
// is already dead — the deadline governs how long a request may queue, not
// whether an uncontended one runs; its own evaluation observes the dead
// context at the first checkpoint anyway.
func (s *Semaphore) Acquire(ctx context.Context) error {
	if s.TryAcquire() {
		return nil
	}
	const stage = "batch: semaphore acquire"
	select {
	case s.slots <- struct{}{}:
		s.held.Add(1)
		return nil
	case <-ctx.Done():
		return &interrupt.Error{Stage: stage, Cause: ctx.Err()}
	}
}

// Release frees a slot taken by Acquire/TryAcquire. Releasing more than
// was acquired is a programming error and panics.
func (s *Semaphore) Release() {
	if s.held.Add(-1) < 0 {
		s.held.Add(1)
		panic("batch: Semaphore.Release without matching Acquire")
	}
	if s.slots != nil {
		<-s.slots
	}
}

// InFlight returns the number of slots currently held.
func (s *Semaphore) InFlight() int {
	return int(s.held.Load())
}
