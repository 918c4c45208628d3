package core

import (
	"context"
	"sync"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/relevance"
)

// Goal-directed querying: with Config.GoalDirected set, least-model
// queries and proofs evaluate against the goal's slice of the snapshot's
// ground program — the instances the goal's atoms reach, cut without
// grounding anything again (cut.go) — instead of the component's full
// least model. Slices are memoised per snapshot in a small LRU keyed by the
// goal's binding pattern (relevance.GoalKey): queries that differ only in
// variable names or literal order share a slice, every snapshot starts
// with an empty cache — so updates invalidate automatically — and pinned
// snapshots keep answering from their own version's slices.

// sliceCacheSize bounds the number of per-goal slices one snapshot keeps.
const sliceCacheSize = 32

// sliceCache is the per-snapshot LRU of goal slices. The zero value is
// ready to use; entries are created on demand under the mutex.
type sliceCache struct {
	mu      sync.Mutex
	tick    uint64
	entries map[string]*sliceEntry
}

type sliceEntry struct {
	slice *goalSlice
	used  uint64
}

// goalSlice holds one goal's slice and its lazily built per-component
// artifacts, one compState per component as for the full grounding. The
// slice itself is a singleflight cell so concurrent queries with the same
// binding pattern cut it exactly once.
type goalSlice struct {
	goal []ast.Literal
	gp   lazyCell[*ground.Program]

	mu    sync.Mutex
	comps map[int]*compState
}

// goalSliceFor returns the snapshot's cached slice state for the goal,
// creating (and, at capacity, evicting the least recently used) entry
// under the cache lock. Only bookkeeping happens here — the cut runs
// outside the lock, in the slice's own singleflight cell.
func (s *Snapshot) goalSliceFor(goal []ast.Literal) *goalSlice {
	key := relevance.GoalKey(goal)
	c := &s.slices
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if e, ok := c.entries[key]; ok {
		e.used = c.tick
		if obs.On() {
			mSliceHits.Inc()
		}
		return e.slice
	}
	if c.entries == nil {
		c.entries = make(map[string]*sliceEntry, sliceCacheSize)
	} else if len(c.entries) >= sliceCacheSize {
		var lruKey string
		var lru *sliceEntry
		for k, e := range c.entries {
			if lru == nil || e.used < lru.used {
				lruKey, lru = k, e
			}
		}
		delete(c.entries, lruKey)
		if obs.On() {
			mSliceEvictions.Inc()
		}
	}
	gs := &goalSlice{goal: goal, comps: make(map[int]*compState)}
	c.entries[key] = &sliceEntry{slice: gs, used: c.tick}
	if obs.On() {
		mSliceMisses.Inc()
	}
	return gs
}

// sliceProgram cuts (or returns the memoised) slice of this snapshot's
// ground program for the goal (cut.go). The slice is taken from the
// snapshot's own live instances, so it reflects this version's fact base
// without replaying the update history or grounding anything again.
func (s *Snapshot) sliceProgram(ctx context.Context, gs *goalSlice) (*ground.Program, error) {
	return gs.gp.get(ctx, "core: goal-slice wait", func(runCtx context.Context) (*ground.Program, error) {
		gp, err := s.cutSlice(runCtx, gs.goal)
		if err != nil {
			return nil, err
		}
		if s.eng.trace.Enabled() {
			s.eng.trace.Emit(obs.E("slice",
				obs.F("goal", relevance.GoalKey(gs.goal)),
				obs.F("rules", len(gp.Rules)),
				obs.F("version", s.version)))
		}
		return gp, nil
	}, nil)
}

// comp returns the slice's per-component state, creating it on first use.
func (gs *goalSlice) comp(i int) *compState {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	st, ok := gs.comps[i]
	if !ok {
		st = newCompState(false)
		gs.comps[i] = st
	}
	return st
}

// sliceView returns the slice's evaluation view for component i, built
// once. Slices are never updated in place, so there is no dead set.
func sliceView(st *compState, gp *ground.Program, i int) *eval.View {
	return st.viewOf(gp, i, gp.Rules, nil, gp.Tab.Len())
}

// answersGoalDirected answers a conjunctive least-model query from the
// goal's slice: the query body is the goal, the slice is cut (once,
// cached) from this snapshot's ground program, and the query evaluates
// against the slice's least model in the component. Answers are identical
// to those of the full least model. The caller routes only queries with
// a non-empty body here — with no literals there is nothing to slice by.
func (s *Snapshot) answersGoalDirected(ctx context.Context, comp string, q ast.Query) (*Answers, error) {
	i, err := s.resolve(comp)
	if err != nil {
		return nil, err
	}
	m, err := s.sliceModel(ctx, i, q.Body)
	if err != nil {
		return nil, err
	}
	return m.Answers(q), nil
}

// sliceModel returns the least model of the goal's slice in component i,
// computing and memoising it with the same singleflight/cancellation
// contract as Snapshot.LeastModelCtx.
func (s *Snapshot) sliceModel(ctx context.Context, i int, goal []ast.Literal) (*Model, error) {
	gs := s.goalSliceFor(goal)
	gp, err := s.sliceProgram(ctx, gs)
	if err != nil {
		return nil, err
	}
	st := gs.comp(i)
	return st.least.get(ctx, "core: goal-slice least-model wait", func(runCtx context.Context) (*Model, error) {
		v := sliceView(st, gp, i)
		in, err := v.LeastModelCtx(runCtx)
		if err != nil {
			return nil, err
		}
		return newModel(v, in), nil
	}, countLeast)
}

// proveGoalDirected answers a least-model membership query for one
// ground literal in component i from the slice cut for that one atom: the
// slice is cut (once, cached) from this snapshot's ground program and the
// memoising prover runs over the slice's view. The answer is identical to
// the full grounding's — an atom outside the slice heads no live instance
// and is unprovable either way.
func (s *Snapshot) proveGoalDirected(ctx context.Context, i int, l ast.Literal) (bool, error) {
	gs := s.goalSliceFor([]ast.Literal{l})
	gp, err := s.sliceProgram(ctx, gs)
	if err != nil {
		return false, err
	}
	id, ok := gp.Tab.Lookup(l.Atom)
	if !ok {
		return false, nil
	}
	st := gs.comp(i)
	pr, release, err := st.acquireProver(ctx, func() *eval.View { return sliceView(st, gp, i) })
	if err != nil {
		return false, err
	}
	defer release()
	return pr.ProveCtx(ctx, interp.MkLit(id, l.Neg))
}
