package core

import (
	"context"
	"slices"
	"sync"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/ground"
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
//
// The route: a goal that misses the cache answers from the component's
// least model instead of a new slice once the model is computed for the
// snapshot, or once the snapshot's misses have cut as many
// instances as the component sees (routes). The component is itself a
// cut-closed atom set, so its model answers every goal exactly as a slice
// does (DESIGN §12). A proof of a ground literal is the one-literal goal's
// lookup: it routes, tallies and shares entries as that query does.
//
// goalModel is the one place a read chooses its model: the entry's model
// here, the component's least model on the default engine. Either model
// keeps the answer sets it produced (query.go), so a repeated goal resolves
// its model as before, which keeps every counter's meaning, and then
// answers from the model's kept bytes.

// sliceCacheSize bounds the number of per-goal slices one snapshot keeps,
// and the number of answer sets one model keeps.
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

// goalSlice holds one goal's cache entry: where it answers from, its slice
// and the slice's lazily built per-component artifacts, one compState per
// component as for the full grounding. The slice itself is a singleflight
// cell so concurrent queries with the same binding pattern cut it exactly
// once.
type goalSlice struct {
	goal []ast.Literal
	// routed is the component whose least model answers the goal, or -1
	// when the miss that created the entry cut its slice, which then counts
	// toward the snapshot's line. A hit answers from what the miss set.
	routed int
	gp     lazyCell[*ground.Program]

	mu    sync.Mutex
	comps map[int]*compState
}

// goalSliceFor returns the snapshot's cached entry for the goal under its
// key (sliceKey), creating (and, at capacity, evicting the least recently
// used) entry under the cache lock, and reports whether it was a miss. ask
// is the component the goal is asked in, whose route a miss decides. Only
// bookkeeping happens here — the cut runs outside the lock, in the slice's
// own singleflight cell.
func (s *Snapshot) goalSliceFor(goal []ast.Literal, key string, ask int) (*goalSlice, bool) {
	c := &s.slices
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if e, ok := c.entries[key]; ok {
		e.used = c.tick
		if obs.On() {
			mSliceHits.Inc()
		}
		return e.slice, false
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
	// The entry keeps its own copy of the goal, so that a caller's goal
	// does not escape: a proof's one-literal goal stays on its stack.
	gs := &goalSlice{goal: slices.Clone(goal), routed: -1}
	if s.routes(ask) {
		gs.routed = ask
	}
	c.entries[key] = &sliceEntry{slice: gs, used: c.tick}
	if obs.On() {
		mSliceMisses.Inc()
	}
	return gs, true
}

// routes reports whether a miss in component i answers from the
// component's least model: when the model is already computed for this
// snapshot, or when the snapshot's misses have cut at least as many
// instances as the component sees (the line; a version that has cut
// nothing has not reached it). A write's carry alone does not route: the
// child cuts, and tallies, from zero.
//
// The line is a ski-rental break-even. A cut costs about the instances it
// cuts; the model costs about the instances the component sees, its view
// and fixpoint being linear in them, and then answers every later goal by
// lookup. Cutting until the cuts have paid one model, then building it,
// never does more than twice the work of the better choice made in
// hindsight — always cut, or build the model at the first miss: a version
// whose misses stay below the line cuts exactly as "always cut" does, and
// one that crosses paid at most the model's price in cuts before paying
// the model itself.
func (s *Snapshot) routes(i int) bool {
	if n := s.answerCuts.Load(); n > 0 && n >= int64(s.visibleLive(i)) {
		return true
	}
	s.mu.Lock()
	st := s.comps[i]
	s.mu.Unlock()
	if st == nil {
		return false
	}
	_, ok := st.least.peek()
	return ok
}

// countRoute counts one miss in component i by where it answers
// from, and the snapshot's switch to the model on its first routed miss.
func (s *Snapshot) countRoute(i int, routed bool) {
	if !routed {
		if obs.On() {
			mRouteCut.Inc()
		}
		return
	}
	if obs.On() {
		mRouteModel.Inc()
	}
	if !s.switched.CompareAndSwap(false, true) {
		return
	}
	if obs.On() {
		mRouteSwitches.Inc()
	}
	if s.eng.trace.Enabled() {
		s.eng.trace.Emit(obs.E("route",
			obs.F("version", s.version),
			obs.F("comp", s.gp.Src.Components[i].Name),
			obs.F("cut", s.answerCuts.Load()),
			obs.F("instances", s.visibleLive(i))))
	}
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
		if gs.routed < 0 {
			s.answerCuts.Add(int64(gp.Rules.Len()))
		}
		if s.eng.trace.Enabled() {
			s.eng.trace.Emit(obs.E("slice",
				obs.F("goal", relevance.GoalKey(gs.goal)),
				obs.F("rules", gp.Rules.Len()),
				obs.F("version", s.version)))
		}
		return gp, nil
	}, nil)
}

// comp returns the slice's per-component state, creating it — and the map,
// which an entry that only routes never needs — on first use.
func (gs *goalSlice) comp(i int) *compState {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	st, ok := gs.comps[i]
	if !ok {
		if gs.comps == nil {
			gs.comps = make(map[int]*compState)
		}
		st = new(compState)
		gs.comps[i] = st
	}
	return st
}

// sliceView returns the slice's evaluation view for component i, built
// once. Slices are never updated in place, so there is no dead set.
func sliceView(st *compState, gp *ground.Program, i int) *eval.View {
	return st.viewOf(gp, i, gp.Rules, nil, gp.Tab.Len())
}

// goalModel resolves the model a goal is answered from in component i.
// On a goal-directed engine with a non-empty goal that is the model its
// cache entry, under key (sliceKey), answers from: the component's least
// model when the miss that created the entry was routed there, and
// otherwise the least model of the entry's slice; a miss is counted by its
// route here, so queries and proofs count alike. Otherwise it is the
// component's least model: with no literals there is nothing to slice by,
// and key is not read.
func (s *Snapshot) goalModel(ctx context.Context, i int, goal []ast.Literal, key string) (*Model, error) {
	if !s.eng.cfg.GoalDirected || len(goal) == 0 {
		return s.leastModel(ctx, i)
	}
	gs, miss := s.goalSliceFor(goal, key, i)
	if miss {
		s.countRoute(i, gs.routed == i)
	}
	if gs.routed == i {
		return s.leastModel(ctx, i)
	}
	return s.sliceLeast(ctx, i, gs)
}

// sliceLeast returns the least model of the entry's slice in component i,
// computing and memoising it with the same singleflight/cancellation
// contract as Snapshot.LeastModelCtx.
func (s *Snapshot) sliceLeast(ctx context.Context, i int, gs *goalSlice) (*Model, error) {
	st := gs.comp(i)
	if m, ok := st.least.peek(); ok { // as leastModel's warm path
		countLeast("hit")
		return m, nil
	}
	gp, err := s.sliceProgram(ctx, gs)
	if err != nil {
		return nil, err
	}
	return st.least.get(ctx, "core: goal-slice least-model wait", func(runCtx context.Context) (*Model, error) {
		v := sliceView(st, gp, i)
		in, err := v.LeastModelCtx(runCtx)
		if err != nil {
			return nil, err
		}
		return newModel(v, in, gp.Rules.Len()), nil
	}, countLeast)
}
