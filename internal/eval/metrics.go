package eval

import (
	"repro/internal/interp"
	"repro/internal/obs"
)

// Evaluation metrics, resolved once from the process-global registry. The
// fixpoint loops accumulate into locals (or the existing FixpointStats
// counters) and flush once per run, gated on obs.On(); the Definition 2
// status counters ride on the once-per-rule transition branches of the
// semi-naive worklist (body satisfied, rule blocked) so the per-edge hot
// paths stay untouched.
var (
	mFixpoints   = obs.Default().Counter("eval.fixpoints")
	mFixpointOps = obs.Default().Counter("eval.fixpoint.pops")
	mFired       = obs.Default().Counter("eval.fired")
	mDerived     = obs.Default().Counter("eval.derived")
	mBlockEvents = obs.Default().Counter("eval.block_events")

	mNaiveFixpoints = obs.Default().Counter("eval.fixpoints.naive")
	mNaiveRounds    = obs.Default().Counter("eval.fixpoint.rounds")

	mViewsBuilt = obs.Default().Counter("eval.views.built")

	// Definition 2 statuses of the visible rules w.r.t. the least model, one
	// counter per status. The semi-naive run derives them from its own
	// counter/flag arrays, the naive run from the authoritative View
	// predicates; the differential counter-consistency suite asserts the two
	// agree program-by-program.
	mRulesApplied   = obs.Default().Counter("eval.rules.applied")
	mRulesBlocked   = obs.Default().Counter("eval.rules.blocked")
	mRulesOverruled = obs.Default().Counter("eval.rules.overruled")
	mRulesDefeated  = obs.Default().Counter("eval.rules.defeated")
)

// countStatuses tallies the Definition 2 statuses of every visible rule
// against the final model using the View predicates and flushes them —
// the naive engine's (authoritative) status accounting.
func (v *View) countStatuses(in *interp.Interp) {
	var applied, blocked, overruled, defeated int64
	for r := 0; r < len(v.heads); r++ {
		st := v.Statuses(r, in)
		if st.Applied {
			applied++
		}
		if st.Blocked {
			blocked++
		}
		if st.Overruled {
			overruled++
		}
		if st.Defeated {
			defeated++
		}
	}
	mRulesApplied.Add(applied)
	mRulesBlocked.Add(blocked)
	mRulesOverruled.Add(overruled)
	mRulesDefeated.Add(defeated)
}
