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

// QueryBatch evaluates a slice of queries — possibly across different
// components — over a bounded worker pool and returns per-query results in
// input order, all against this snapshot. Least models are computed once
// per component (singleflight) and shared by every request that targets
// it, so a batch of M queries over K components runs K fixpoints, not M.
func (s *Snapshot) QueryBatch(reqs []QueryRequest, opts batch.Options) []QueryResult {
	return s.QueryBatchCtx(context.Background(), reqs, opts)
}

// QueryBatchCtx is QueryBatch with cooperative cancellation: once the
// context is cancelled no further requests start, requests already running
// are interrupted at the engine's checkpoints, and every request that
// never produced a result carries an interrupt.Error (tagged with its
// index). Finished results are kept — the batch degrades to partial
// answers instead of discarding completed work.
func (s *Snapshot) QueryBatchCtx(ctx context.Context, reqs []QueryRequest, opts batch.Options) []QueryResult {
	out := make([]QueryResult, len(reqs))
	ran := make([]bool, len(reqs))
	batchErr := batch.EachCtx(ctx, len(reqs), s.eng.fillBatch(opts), func(_, i int) {
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

// ProveBatch answers a slice of goal-directed membership queries over a
// bounded worker pool, all against this snapshot. Proofs within one
// component share that component's memoising prover and are serialised;
// proofs across components run in parallel. Per-item errors are tagged
// with the item index.
func (s *Snapshot) ProveBatch(comp string, lits []ast.Literal, opts batch.Options) ([]bool, []error) {
	return s.ProveBatchCtx(context.Background(), comp, lits, opts)
}

// ProveBatchCtx is ProveBatch with cooperative cancellation; answers
// already proved are returned, unstarted and interrupted items carry an
// interrupt.Error.
func (s *Snapshot) ProveBatchCtx(ctx context.Context, comp string, lits []ast.Literal, opts batch.Options) ([]bool, []error) {
	return batch.MapCtx(ctx, lits, s.eng.fillBatch(opts), func(l ast.Literal) (bool, error) {
		return s.ProveCtx(ctx, comp, l)
	})
}

// QueryBatch evaluates a slice of queries over a bounded worker pool
// against one pinned snapshot: the engine's current version is captured
// once for the whole batch, so a concurrent Update never changes the
// answers of later items relative to earlier ones.
func (e *Engine) QueryBatch(reqs []QueryRequest, opts batch.Options) []QueryResult {
	return e.Current().QueryBatch(reqs, opts)
}

// QueryBatchCtx is QueryBatch with cooperative cancellation (see
// Snapshot.QueryBatchCtx). The whole batch reads one pinned snapshot.
func (e *Engine) QueryBatchCtx(ctx context.Context, reqs []QueryRequest, opts batch.Options) []QueryResult {
	return e.Current().QueryBatchCtx(ctx, reqs, opts)
}

// ProveBatch answers a slice of goal-directed membership queries over a
// bounded worker pool against one pinned snapshot.
func (e *Engine) ProveBatch(comp string, lits []ast.Literal, opts batch.Options) ([]bool, []error) {
	return e.Current().ProveBatch(comp, lits, opts)
}

// ProveBatchCtx is ProveBatch with cooperative cancellation (see
// Snapshot.ProveBatchCtx). The whole batch reads one pinned snapshot.
func (e *Engine) ProveBatchCtx(ctx context.Context, comp string, lits []ast.Literal, opts batch.Options) ([]bool, []error) {
	return e.Current().ProveBatchCtx(ctx, comp, lits, opts)
}
