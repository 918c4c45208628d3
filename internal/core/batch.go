package core

import (
	"context"
	"fmt"

	"repro/internal/ast"
	"repro/internal/batch"
)

// QueryRequest is one unit of a batched query: a conjunctive query
// evaluated against the least model of a component ("" selects
// DefaultComponent).
type QueryRequest struct {
	Comp  string
	Query ast.Query
}

// QueryResult is the outcome of one QueryRequest. Bindings is nil when Err
// is non-nil.
type QueryResult struct {
	Bindings []Binding
	Err      error
}

// QueryBatchCtx evaluates a slice of queries — possibly across different
// components — over a pool of GOMAXPROCS workers and returns per-query
// results in input order, all against this snapshot. Least models are
// computed once per component (singleflight) and shared by every request
// that targets it, so a batch of M queries over K components runs K
// fixpoints, not M; on a goal-directed engine (Config.GoalDirected) the
// per-goal slices are cut and evaluated in parallel. Once the context is
// cancelled no further requests start, requests already running are
// interrupted at the engine's checkpoints, and every request that never
// produced a result carries an interrupt.Error (tagged with its index).
// Finished results are kept — the batch degrades to partial answers
// instead of discarding completed work.
func (s *Snapshot) QueryBatchCtx(ctx context.Context, reqs []QueryRequest) []QueryResult {
	out := make([]QueryResult, len(reqs))
	ran := make([]bool, len(reqs))
	batchErr := batch.EachCtx(ctx, len(reqs), func(_, i int) {
		ran[i] = true
		bindings, err := s.QueryCtx(ctx, reqs[i].Comp, reqs[i].Query)
		if err != nil {
			out[i] = QueryResult{Err: fmt.Errorf("item %d: %w", i, err)}
			return
		}
		out[i] = QueryResult{Bindings: bindings}
	})
	if batchErr != nil {
		for i := range reqs {
			if !ran[i] {
				out[i] = QueryResult{Err: fmt.Errorf("item %d: %w", i, batchErr)}
			}
		}
	}
	return out
}

// QueryBatchCtx evaluates a slice of queries over a pool of GOMAXPROCS
// workers against one pinned snapshot: the engine's current version is
// captured once for the whole batch, so a concurrent Update never changes
// the answers of later items relative to earlier ones. Cancellation and
// partial results are as in Snapshot.QueryBatchCtx.
func (e *Engine) QueryBatchCtx(ctx context.Context, reqs []QueryRequest) []QueryResult {
	return e.Current().QueryBatchCtx(ctx, reqs)
}
