// Package core wires the parser, grounder, evaluator and stable-model
// enumerator into one engine: the paper's primary contribution as a usable
// deductive-database library. The root package ordlog re-exports this API.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/interrupt"
	"repro/internal/obs"
	"repro/internal/stable"
)

// Engine holds a versioned, grounded ordered program. The fact base is
// maintained through immutable snapshots: construction grounds the source
// program into version 0, and Update/Retract publish new versions without
// mutating old ones. Every query method on the Engine pins the current
// snapshot for the duration of one call; callers that need several queries
// to agree on a version hold a *Snapshot (Current) and query that instead.
//
// Concurrency contract: an Engine is safe for concurrent use by multiple
// goroutines, including concurrent updates — writers are serialised among
// themselves and never block readers; a reader keeps the version it
// pinned. Per-component views and least models are memoised per snapshot
// with singleflight semantics — N goroutines asking for the same component
// compute each artifact exactly once and share the result, and snapshots
// whose visible rules agree on a component share the memo across versions.
// The returned *Model values (and the interp.Interp they expose) are
// shared and must be treated as read-only; callers that need a private
// copy clone the interpretation. Proofs (ProveCtx) are membership tests
// in those memoised models, so nothing serialises readers of one
// component; ProveExplainCtx reads the component's memoised view.
//
// Cancellation contract: every evaluation entry point has a ...Ctx variant
// that stops at the engine's cooperative checkpoints once the context is
// cancelled or past its deadline, returning an error matching
// interrupt.ErrInterrupted together with whatever partial results the
// operation defines (see the per-method comments). The singleflight least-
// model cache respects each caller's context individually: a caller whose
// context dies stops waiting immediately, the in-flight computation keeps
// running while any caller still wants it, and it is cancelled — without
// poisoning the cache — only when the last waiter has given up.
type Engine struct {
	src   *ast.OrderedProgram
	cfg   Config
	trace *tracer

	// base is the version the engine's in-memory update history
	// (Snapshot.log) starts at: 0 for a fresh engine, the recovered
	// checkpoint's version after core.Recover (whose first snapshot is the
	// log's tip). AsOf reads below it go through the WAL on disk.
	base uint64

	// memBase is the oldest version the in-memory update history can
	// still reconstruct: base at construction, advanced by compaction
	// (which collapses the carried history to its net effect and thereby
	// forgets the intermediate versions). Atomic because AsOf reads it
	// without the write lock.
	memBase atomic.Uint64

	// sinceCompact counts incremental updates since the last full rebuild
	// (compaction or reground fallback). Only touched under writeMu.
	sinceCompact int

	// dur is the write-ahead log state of a durable engine, nil for a
	// memory-only one. Only touched under writeMu (updates) or at
	// construction/Close.
	dur *durable

	// writeMu serialises updates. hist is the tip's update history and
	// fact index (history.go), touched only under writeMu; a write that
	// fails rolls it back, and one that publishes a compacted rebuild
	// replaces it. current is the published tip, advanced by updates and
	// read lock-free by queries.
	writeMu sync.Mutex
	hist    *history
	current atomic.Pointer[Snapshot]

	// asOfMu guards the small FIFO cache of AsOf-materialised snapshots.
	asOfMu    sync.Mutex
	asOfCache map[uint64]*Snapshot
	asOfOrder []uint64
}

// NewEngineCtx grounds the program into the engine's initial snapshot. The
// program must be validated (parser output always is; hand-built programs
// need Validate). The configuration is cfg with the options applied on
// top; an invalid result is rejected with a *ConfigError. Grounding
// honours ctx at the checkpoints of ground.GroundCtx; no partial engine is
// returned on interruption.
func NewEngineCtx(ctx context.Context, p *ast.OrderedProgram, cfg Config, opts ...Option) (*Engine, error) {
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := newEngine(replay(p, nil), cfg, 0)
	snap, err := e.reground(ctx, 0, e.hist)
	if err != nil {
		return nil, err
	}
	e.current.Store(snap)
	if e.trace.Enabled() {
		e.trace.Emit(obs.E("ground", obs.F("rules", snap.rules.Len()), obs.F("atoms", snap.nAtoms)))
	}
	if cfg.Durability.Dir != "" {
		if err := e.initDurability(); err != nil {
			return nil, err
		}
	}
	if obs.On() {
		mVersion.Set(0)
	}
	return e, nil
}

// newEngine builds an engine over the source of h, whose log starts at
// version base, with no snapshot yet: the caller publishes the first one,
// grounded from h by reground. cfg must already be validated, and the
// caller owns the version gauge and durability attachment — throwaway
// AsOf engines must touch neither.
func newEngine(h *history, cfg Config, base uint64) *Engine {
	e := &Engine{src: h.src, cfg: cfg, base: base, hist: h, trace: newTracer(cfg.Trace)}
	e.memBase.Store(base)
	return e
}

// fillStable applies Config.EnumBudget as the default leaf budget.
func (e *Engine) fillStable(opts stable.Options) stable.Options {
	if opts.MaxLeaves == 0 && e.cfg.EnumBudget > 0 {
		opts.MaxLeaves = e.cfg.EnumBudget
	}
	return opts
}

// Current returns the engine's current snapshot. The snapshot is immutable;
// queries against it are repeatable regardless of concurrent updates.
func (e *Engine) Current() *Snapshot { return e.current.Load() }

// Source returns the original source program. Updates do not rewrite it.
func (e *Engine) Source() *ast.OrderedProgram { return e.src }

// Grounded returns the current snapshot's ground program. See
// Snapshot.Grounded for the concurrency contract: its Rules and Universe
// fields must not be read while an Update/Retract may be in flight.
func (e *Engine) Grounded() *ground.Program { return e.Current().Grounded() }

// NumGroundRules returns the number of live ground rule instances in the
// current snapshot.
func (e *Engine) NumGroundRules() int { return e.Current().NumGroundRules() }

// NumAtoms returns the size of the (relevant) Herbrand base in the current
// snapshot.
func (e *Engine) NumAtoms() int { return e.Current().NumAtoms() }

// DefaultComponent picks the component a query without an explicit target
// refers to: the unique minimal element of the order (the most specific
// component, the paper's "myself" level); if the order has several minimal
// elements, the implicit component "main" when present. Otherwise an error.
func (e *Engine) DefaultComponent() (string, error) {
	var minimal []string
	for i, c := range e.src.Components {
		isMin := true
		for j := range e.src.Components {
			if e.src.Less(j, i) {
				isMin = false
				break
			}
		}
		if isMin {
			minimal = append(minimal, c.Name)
		}
	}
	if len(minimal) == 1 {
		return minimal[0], nil
	}
	for _, n := range minimal {
		if n == "main" {
			return n, nil
		}
	}
	return "", fmt.Errorf("core: no unique most specific component (minimal: %v); name one explicitly", minimal)
}

// View returns the cached evaluation view for a component in the current
// snapshot; comp == "" selects DefaultComponent. The view is built exactly
// once per component and version even under concurrent callers and is
// immutable afterwards.
func (e *Engine) View(comp string) (*eval.View, error) { return e.Current().View(comp) }

// LeastModelCtx computes the least model of the program in the component
// (lfp of the ordered immediate transformation, Theorem 1(b)) as of the
// current snapshot. Results are cached per component and version with
// singleflight semantics; callers must not mutate the returned model's
// interpretation. Concurrent callers share one fixpoint computation, but
// each waiter honours its own context — a caller whose context dies
// returns an interrupt.Error immediately while the computation keeps
// serving the remaining waiters, and only when every waiter has abandoned
// it is the computation itself cancelled (and the cache left clean for the
// next caller to retry). Deterministic evaluation errors are cached.
func (e *Engine) LeastModelCtx(ctx context.Context, comp string) (*Model, error) {
	return e.Current().LeastModelCtx(ctx, comp)
}

// QueryCtx evaluates a conjunctive query against the component's least
// model in the current snapshot and returns one binding per solution (see
// Model.Query). The context interrupts the underlying least-model
// computation; match enumeration over an already-materialised model is not
// interruptible (it is linear in the model and fast), the fixpoint is the
// unbounded part.
func (e *Engine) QueryCtx(ctx context.Context, comp string, q ast.Query) ([]Binding, error) {
	return e.Current().QueryCtx(ctx, comp, q)
}

// AssumptionFreeModelsCtx enumerates the assumption-free models in the
// component (Definition 7) as of the current snapshot, in the enumerator's
// depth-first order; a large search fans out over GOMAXPROCS workers
// without changing that order (see stable.AssumptionFreeModelsCtx). The
// result may be partial: on ErrBudget the models found before the budget
// ran out are returned alongside the error, and a cancelled or expired
// context stops the search within one DFS checkpoint and returns the
// (possibly empty, always non-nil) partial model set alongside an
// interrupt.Error.
func (e *Engine) AssumptionFreeModelsCtx(ctx context.Context, comp string, opts stable.Options) ([]*Model, error) {
	return e.Current().AssumptionFreeModelsCtx(ctx, comp, opts)
}

// StableModelsCtx enumerates the stable models in the component — the
// maximal assumption-free models (Definition 9) — as of the current
// snapshot, with the partial-result contract of AssumptionFreeModelsCtx:
// on ErrBudget or an interruption the maximal models of the truncated
// enumeration are returned alongside the error.
func (e *Engine) StableModelsCtx(ctx context.Context, comp string, opts stable.Options) ([]*Model, error) {
	return e.Current().StableModelsCtx(ctx, comp, opts)
}

// partialEnumErr reports whether an enumeration error carries partial
// results (budget exhaustion or interruption) rather than failure.
func partialEnumErr(err error) bool {
	return errors.Is(err, stable.ErrBudget) || errors.Is(err, interrupt.ErrInterrupted)
}

func wrapModels(v *eval.View, ms []*interp.Interp, rules int) []*Model {
	out := make([]*Model, len(ms))
	for i, m := range ms {
		out[i] = newModel(v, m, rules)
	}
	return out
}

// InterpFromLiterals builds a Model-shaped interpretation from AST
// literals for use with CheckModel and CheckAssumptionFree. Every atom
// must be in the (relevant) Herbrand base of the current snapshot.
func (e *Engine) InterpFromLiterals(comp string, lits []ast.Literal) (*Model, error) {
	return e.Current().InterpFromLiterals(comp, lits)
}

// CheckModel reports whether m satisfies Definition 3 in m's component,
// with a reason when it does not.
func (e *Engine) CheckModel(m *Model) (bool, string) {
	bad, why := m.view().ModelViolation(m.in)
	return !bad, why
}

// CheckAssumptionFree reports whether m is an assumption-free model
// (Definition 7 / Theorem 1(a)).
func (e *Engine) CheckAssumptionFree(m *Model) bool {
	return m.view().IsAssumptionFree(m.in)
}
