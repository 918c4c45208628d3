package batch

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachCoversAllItems(t *testing.T) {
	for _, n := range []int{1, 2, 3, 257} {
		hits := make([]atomic.Int32, n)
		if err := EachCtx(context.Background(), n, func(_, i int) {
			hits[i].Add(1)
		}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: item %d executed %d times", n, i, got)
			}
		}
	}
}

func TestEachZeroItems(t *testing.T) {
	called := false
	if err := EachCtx(context.Background(), 0, func(_, _ int) { called = true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called with no items")
	}
}

func TestEachWorkerIndexBounded(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	var bad atomic.Bool
	if err := EachCtx(context.Background(), 200, func(w, _ int) {
		if w < 0 || w >= workers {
			bad.Store(true)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if bad.Load() {
		t.Error("worker index out of range")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.String() != "no observations" {
		t.Errorf("empty histogram: %q", h.String())
	}
	durations := []time.Duration{
		500 * time.Nanosecond, time.Microsecond, 3 * time.Microsecond,
		100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
	}
	for _, d := range durations {
		h.Observe(d)
	}
	if h.Count() != int64(len(durations)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(durations))
	}
	if h.Mean() <= 0 {
		t.Error("Mean not positive")
	}
	if q := h.Quantile(1.0); q < 10*time.Millisecond {
		t.Errorf("p100 %v below max observation", q)
	}
	if q := h.Quantile(0); q > 2*time.Microsecond {
		t.Errorf("p0 %v above smallest bucket boundary", q)
	}

	var other Histogram
	other.Observe(42 * time.Microsecond)
	h.Merge(&other)
	if h.Count() != int64(len(durations))+1 {
		t.Errorf("Merge: Count = %d", h.Count())
	}
}

func TestHistogramMergeIntoEmpty(t *testing.T) {
	var dst, src Histogram
	src.Observe(time.Millisecond)
	dst.Merge(&src)
	if dst.Count() != 1 || dst.Mean() != time.Millisecond {
		t.Errorf("merge into empty: n=%d mean=%v", dst.Count(), dst.Mean())
	}
}
