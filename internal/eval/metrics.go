package eval

import "repro/internal/obs"

// Evaluation metrics, resolved once from the process-global registry. The
// fixpoint loop accumulates into locals and flushes once per run, gated on obs.On(); the Definition 2
// status counters ride on the once-per-rule transition branches of the
// semi-naive worklist (body satisfied, rule blocked) so the per-edge hot
// paths stay untouched.
var (
	mFixpoints   = obs.Default().Counter("eval.fixpoints")
	mFixpointOps = obs.Default().Counter("eval.fixpoint.pops")
	mFired       = obs.Default().Counter("eval.fired")
	mDerived     = obs.Default().Counter("eval.derived")
	mBlockEvents = obs.Default().Counter("eval.block_events")

	mViewsBuilt = obs.Default().Counter("eval.views.built")

	// Definition 2 statuses of the visible rules w.r.t. the least model, one
	// counter per status. The semi-naive run derives them from its own
	// counter/flag arrays; the counter-consistency suite asserts they agree
	// with the authoritative View predicates program-by-program.
	mRulesApplied   = obs.Default().Counter("eval.rules.applied")
	mRulesBlocked   = obs.Default().Counter("eval.rules.blocked")
	mRulesOverruled = obs.Default().Counter("eval.rules.overruled")
	mRulesDefeated  = obs.Default().Counter("eval.rules.defeated")
)
