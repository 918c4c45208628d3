package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/oracle/gen"
)

// TestProveAfterWriteBuildsNoView: once the component's model exists, a
// proof after a write reads the model the write's cone derives and builds
// no view. On the write tenant, 50 assert-then-prove pairs move
// core.view.builds by exactly 0 and core.least.cone by exactly 50.
func TestProveAfterWriteBuildsNoView(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngineCtx(ctx, mustProgram(t, gen.PolicySource(100)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := eng.ProveCtx(ctx, "exc", lit(t, "p(c0)")); err != nil || !ok {
		t.Fatalf("p(c0) on v0: %v, %v", ok, err)
	}
	before := obs.Default().Snap()
	for j := 0; j < 50; j++ {
		s, err := eng.Update(ctx, "exc", []ast.Literal{lit(t, fmt.Sprintf("bad(c%d)", j))})
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := s.ProveCtx(ctx, "exc", lit(t, fmt.Sprintf("-ok(c%d)", j))); err != nil || !ok {
			t.Fatalf("-ok(c%d) after asserting bad(c%[1]d): %v, %v", j, ok, err)
		}
	}
	d := obs.Default().Snap().Diff(before)
	if d["core.view.builds"] != 0 || d["core.least.cone"] != 50 {
		t.Errorf("50 write+prove pairs: core.view.builds = %d (want 0), core.least.cone = %d (want 50)",
			d["core.view.builds"], d["core.least.cone"])
	}
}

// BenchmarkProveParallel proves ok/1 literals in the policy component of
// the write tenant from 1 and from 8 goroutines on one snapshot whose
// model is warm, on a full and on a goal-directed engine. ns/op is wall
// time per proof over all goroutines, so 8 goroutines at no more than 1's
// per-op time means proofs of one component do not queue on each other.
func BenchmarkProveParallel(b *testing.B) {
	const kb = 1000
	ctx := context.Background()
	goals := make([]ast.Literal, sliceCacheSize/2) // every goal's entry stays cached
	for j := range goals {
		goals[j] = ast.Pos(ast.Atom{Pred: "ok", Args: []ast.Term{ast.Sym(fmt.Sprintf("c%d", j*kb/len(goals)))}})
	}
	for _, mode := range []struct {
		name string
		cfg  Config
	}{{"full", Config{}}, {"goal-directed", Config{GoalDirected: true}}} {
		eng, err := NewEngineCtx(ctx, mustProgram(b, gen.PolicySource(kb)), mode.cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := eng.Current()
		for _, g := range goals { // warm: the model, and on the goal-directed engine each goal's entry
			if ok, err := s.ProveCtx(ctx, "policy", g); err != nil || !ok {
				b.Fatalf("%s: %v, %v", g, ok, err)
			}
		}
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", mode.name, workers), func(b *testing.B) {
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ReportAllocs()
				b.ResetTimer()
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
							if ok, err := s.ProveCtx(ctx, "policy", goals[i%int64(len(goals))]); err != nil || !ok {
								b.Errorf("prove: %v, %v", ok, err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
