package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
)

// Update-path counter consistency under concurrent writers: every published
// version is counted exactly once, each as either incremental or reground,
// and the per-reason fallback labels account for every reground. Run under
// -race this also exercises the registry's atomics against the engine's
// writer serialisation.
func TestUpdateCounterConsistency(t *testing.T) {
	e := snapEngine(t)
	const workers, per = 8, 6
	// Pre-parse outside the goroutines (lit fails the test on bad input).
	// Even iterations assert a plain fact over a fresh constant, odd ones a
	// negative fact; which updates stay incremental and which fall back to
	// regrounding is the engine's business — the invariant below holds
	// either way.
	lits := make([][]ast.Literal, workers*per)
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			s := fmt.Sprintf("p(w%d_%d)", w, i)
			if i%2 == 1 {
				s = fmt.Sprintf("-evil(w%d_%d)", w, i)
			}
			lits[w*per+i] = []ast.Literal{lit(t, s)}
		}
	}
	before := obs.Default().Snap()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := e.Update(context.Background(), "kb", lits[w*per+i]); err != nil {
					t.Errorf("worker %d update %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	d := obs.Default().Snap().Diff(before)

	total := d["core.updates"]
	if total != workers*per {
		t.Fatalf("core.updates = %d, want %d", total, workers*per)
	}
	incr, reground := d["core.updates.incremental"], d["core.updates.reground"]
	if incr+reground != total {
		t.Fatalf("incremental (%d) + reground (%d) != total updates (%d): an update path is uncounted or double-counted",
			incr, reground, total)
	}
	var labelled int64
	for name, v := range d {
		if strings.HasPrefix(name, "core.update.fallback.") {
			labelled += v
		}
	}
	if labelled != reground {
		t.Fatalf("per-reason fallback counters sum to %d but core.updates.reground = %d:\n%v",
			labelled, reground, d)
	}
	// The negative-fact asserts cannot be applied in place, so at least one
	// reground with that label must have happened.
	if d["core.update.fallback.negative-fact"] == 0 {
		t.Fatalf("expected negative-fact fallbacks, got none: %v", d)
	}
}
