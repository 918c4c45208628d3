package core

import "repro/internal/obs"

// Engine-layer metrics, resolved once from the process-global registry.
// Update/memo paths run at most once per API call, so the per-call
// enabled check plus a few atomic adds never touch an inner loop. The
// per-reason fallback counters ("core.update.fallback.<reason>") are
// looked up dynamically — regrounding is the rare path by design.
var (
	mUpdates         = obs.Default().Counter("core.updates")
	mUpdatesIncr     = obs.Default().Counter("core.updates.incremental")
	mUpdatesReground = obs.Default().Counter("core.updates.reground")
	mVersion         = obs.Default().Gauge("core.snapshot.version")

	// Compaction family: runs counts compacting rebuilds (threshold-driven
	// and explicit Engine.Compact alike), dead_dropped the retracted
	// instances each run drained, events_collapsed the history entries
	// each run folded away.
	mCompactRuns      = obs.Default().Counter("update.compact.runs")
	mCompactDead      = obs.Default().Counter("update.compact.dead_dropped")
	mCompactCollapsed = obs.Default().Counter("update.compact.events_collapsed")

	mViewBuilds = obs.Default().Counter("core.view.builds")
	mViewHits   = obs.Default().Counter("core.view.hits")

	mLeastComputed = obs.Default().Counter("core.least.computed")
	mLeastHits     = obs.Default().Counter("core.least.hits")
	mLeastWaiters  = obs.Default().Counter("core.least.waiters")

	// Component models derived from a write's cone (cone.go) rather than
	// computed over the whole component, the cone atoms they re-evaluated
	// (summed), and the reads a write affected that rebuilt the model
	// instead, by reason: the cone was too large, no ancestor model was
	// computed, or the context ended mid-cone.
	mLeastCone         = obs.Default().Counter("core.least.cone")
	mLeastConeAtoms    = obs.Default().Counter("core.least.cone_atoms")
	mConeFallbackSize  = obs.Default().Counter("core.least.cone_fallback.size")
	mConeFallbackBase  = obs.Default().Counter("core.least.cone_fallback.no-base")
	mConeFallbackIntrp = obs.Default().Counter("core.least.cone_fallback.interrupted")

	// One per (predicate, sign) bucket of a model's literal index, built on
	// the first query that scans the predicate (query.go).
	mIndexBuilds = obs.Default().Counter("core.index.builds")

	// Goal-directed slice cache (per-snapshot LRU of goal slices, keyed by
	// the goal's binding pattern): a hit reuses a cached slice of the
	// pinned snapshot, a miss cuts one from the snapshot's ground program
	// (cut.go), an eviction drops the least recently used slice when the
	// cache is full. The names predate the cut and stay for the serving
	// benchmark's trace.
	mSliceHits      = obs.Default().Counter("relevance.cache.hits")
	mSliceMisses    = obs.Default().Counter("relevance.cache.misses")
	mSliceEvictions = obs.Default().Counter("relevance.cache.evictions")

	// One per goal-directed miss (query or proof), by where it answers
	// from: a slice cut for it (route.cut) or the component's least model
	// (route.model); and one per snapshot whose misses begin routing to
	// the model (route.switches). See goal.go's routes.
	mRouteCut      = obs.Default().Counter("core.route.cut")
	mRouteModel    = obs.Default().Counter("core.route.model")
	mRouteSwitches = obs.Default().Counter("core.route.switches")

	// One per answer, by whether the model it is read from already kept
	// the answer set for the same query text (query.go): a hit returns it,
	// encoding included; a miss runs the query on the model and keeps the
	// result, if it has no more rows than the model has rules.
	mAnswerMemoHits   = obs.Default().Counter("core.answers.memo.hits")
	mAnswerMemoMisses = obs.Default().Counter("core.answers.memo.misses")

	// One per Tenant.Goal (prepared.go): a hit returns the goal the tenant
	// prepared for the same text, a miss parses and keeps a new one, an
	// eviction drops one kept goal to make room. A text that fails to
	// parse counts in none.
	mGoalHits      = obs.Default().Counter("core.goals.hits")
	mGoalMisses    = obs.Default().Counter("core.goals.misses")
	mGoalEvictions = obs.Default().Counter("core.goals.evictions")

	// One per ground program whose occurrence index (cut.go) a goal cut or
	// a write's cone first indexes; later readers only extend it, and are
	// not counted. A reground or compaction makes a new program.
	mSliceIndexBuilds = obs.Default().Counter("core.slice.index_builds")
)

// countCone counts one cone-derived model of nAtoms cone atoms.
func countCone(nAtoms int) {
	if obs.On() {
		mLeastCone.Inc()
		mLeastConeAtoms.Add(int64(nAtoms))
	}
}

// countConeFallback counts one rebuild of a model a write affected.
func countConeFallback(reason string) {
	if !obs.On() {
		return
	}
	switch reason {
	case "size":
		mConeFallbackSize.Inc()
	case "no-base":
		mConeFallbackBase.Inc()
	case "interrupted":
		mConeFallbackIntrp.Inc()
	}
}

// countFallback bumps both the total reground counter and the per-reason
// labelled counter.
func countFallback(reason string) {
	if !obs.On() {
		return
	}
	mUpdatesReground.Inc()
	if reason == "" {
		reason = "unspecified"
	}
	obs.Default().Counter("core.update.fallback." + reason).Inc()
}

// Metrics returns a point-in-time snapshot of the process-global metrics
// registry: every engine-layer counter and gauge by dotted name. Diff two
// snapshots (obs.Snap.Diff) to attribute counts to a span of work.
func (e *Engine) Metrics() obs.Snap { return obs.Default().Snap() }
