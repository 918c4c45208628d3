package stable

import "repro/internal/obs"

// Enumeration metrics, resolved once from the process-global registry. The
// DFS counts nodes in a plain per-search field (per worker when the search
// fans out) and flushes once when the search returns, gated on obs.On().
var (
	mSearches        = obs.Default().Counter("stable.searches")
	mNodes           = obs.Default().Counter("stable.nodes")
	mLeaves          = obs.Default().Counter("stable.leaves")
	mModels          = obs.Default().Counter("stable.models")
	mBudgetExhausted = obs.Default().Counter("stable.budget_exhausted")
	mFanOuts         = obs.Default().Counter("stable.fanouts")
)

// flushSearch publishes one finished search's counts; fanned marks a
// search that split into prefix tasks.
func flushSearch(nodes, leaves, models int64, overflow, fanned bool) {
	if !obs.On() {
		return
	}
	mSearches.Inc()
	mNodes.Add(nodes)
	mLeaves.Add(leaves)
	mModels.Add(models)
	if overflow {
		mBudgetExhausted.Inc()
	}
	if fanned {
		mFanOuts.Inc()
	}
}
