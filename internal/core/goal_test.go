package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ground"
	"repro/internal/interrupt"
)

// Cancellation contract: a cancelled goal-directed query returns an
// interruption error and leaks no partial slice — the next query with a
// live context recomputes the slice and answers exactly like the full
// path.
func TestGoalDirectedCancellation(t *testing.T) {
	prog := mustProgram(t, chainText(30, 15))
	gd, err := NewEngineCtx(context.Background(), prog, Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewEngineCtx(context.Background(), prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := parseGoal(t, "path(c0, X)")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := gd.Current().QueryCtx(cancelled, "base", q); !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("cancelled goal-directed query: err = %v, want ErrInterrupted", err)
	}
	if _, err := gd.Current().ProveCtx(cancelled, "base", lit(t, "path(c0, c30)")); !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("cancelled goal-directed prove: err = %v, want ErrInterrupted", err)
	}
	ctx := context.Background()
	got, err := gd.Current().QueryCtx(ctx, "base", q)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	want, err := full.Current().QueryCtx(ctx, "base", q)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
		t.Errorf("answers after interrupted slice diverged\nfull:  %s\nslice: %s", w, g)
	}
}

// BenchmarkQueryBatch answers 64 distinct path(cI, X) goals per op, once
// through QueryBatchCtx's GOMAXPROCS pool and once in a plain QueryCtx
// loop, on a goal-directed engine and on a full-model one. The goals
// outnumber the 32-entry slice cache and recur in the same order, so on
// the goal-directed engine every goal cuts and evaluates its slice; on the
// full-model engine the component's least model is computed once and
// every goal is a lookup. This is the measurement that keeps the batch
// pool (EXPERIMENTS.md "One entry point per question").
func BenchmarkQueryBatch(b *testing.B) {
	const goals = 64
	prog := mustProgram(b, chainText(120, 60))
	reqs := make([]QueryRequest, goals)
	for i := range reqs {
		reqs[i] = QueryRequest{Comp: "exc", Query: parseGoal(b, fmt.Sprintf("path(c%d, X)", i))}
	}
	ctx := context.Background()
	for _, eng := range []struct {
		name string
		cfg  Config
	}{{"goal-directed", Config{GoalDirected: true}}, {"full", Config{}}} {
		e, err := NewEngineCtx(context.Background(), prog, eng.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(eng.name+"/loop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range reqs {
					if _, err := e.QueryCtx(ctx, r.Comp, r.Query); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(eng.name+"/batch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range e.QueryBatchCtx(ctx, reqs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// Configuration: a cut needs only a ground program, not smart grounding,
// so a goal-directed engine over the exhaustive grounder is accepted (the
// harness runs it as the goal-modefull configuration). The one rejected
// combination is a fixed Ground.Goal.
func TestGoalDirectedConfigValidation(t *testing.T) {
	ctx := context.Background()
	prog := mustProgram(t, chainText(4, 2))
	fullMode := ground.DefaultOptions()
	fullMode.Mode = ground.ModeFull
	if _, err := NewEngineCtx(ctx, prog, Config{GoalDirected: true, Ground: fullMode}); err != nil {
		t.Fatalf("GoalDirected over ModeFull: %v", err)
	}
	fixed := ground.DefaultOptions()
	fixed.Goal = parseGoal(t, "path(c0, X)").Body
	if _, err := NewEngineCtx(ctx, prog, Config{GoalDirected: true, Ground: fixed}); err == nil {
		t.Error("GoalDirected with a fixed Ground.Goal accepted")
	}
}
