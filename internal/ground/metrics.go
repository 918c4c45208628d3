package ground

import (
	"time"

	"repro/internal/obs"
)

// Grounding metrics, resolved once from the process-global registry. Hot
// paths never touch these: counts accumulate in the grounder (or in
// locals) and flush with a handful of atomic adds when a grounding run or
// delta update completes, gated on obs.On().
var (
	mGroundRuns        = obs.Default().Counter("ground.runs")
	mGroundInstances   = obs.Default().Counter("ground.instances")
	mCompetitorClosure = obs.Default().Counter("ground.competitor_instances")
	mDeltaAsserts      = obs.Default().Counter("ground.delta.asserts")
	mDeltaAssertInst   = obs.Default().Counter("ground.delta.assert_instances")
	mDeltaRetracts     = obs.Default().Counter("ground.delta.retracts")
	mDeltaRetractInst  = obs.Default().Counter("ground.delta.retract_instances")

	// The competitor pass's work, over grounding runs and delta asserts
	// alike: targets visited and candidate rules that reached the head match
	// (read off the head index; a component scan would make that targets ×
	// rules). ground.delta.growth counts asserts that grew the universe and
	// ground.delta.growth_revisited the pre-existing targets such an assert
	// re-enumerated because a candidate had an open variable.
	mCompetitorTargets    = obs.Default().Counter("ground.competitor.targets")
	mCompetitorCandidates = obs.Default().Counter("ground.competitor.candidates")
	mDeltaGrowth          = obs.Default().Counter("ground.delta.growth")
	mDeltaGrowthRevisited = obs.Default().Counter("ground.delta.growth_revisited")

	// Goal-directed (magic-set) grounding family, flushed once per sliced
	// run: seed tuples inserted, predicates demanded/magic-restricted by
	// the relevance analysis, and source rules the slicing skipped.
	mMagicRuns       = obs.Default().Counter("ground.magic.runs")
	mMagicSeeds      = obs.Default().Counter("ground.magic.seeds")
	mMagicDemanded   = obs.Default().Counter("ground.magic.demanded_preds")
	mMagicRestricted = obs.Default().Counter("ground.magic.restricted_preds")
	mMagicSkipped    = obs.Default().Counter("ground.magic.skipped_rules")

	// Where a grounding run's wall time goes, in microseconds summed over
	// runs: the universe and the source compiled to ids (every run), then,
	// in smart mode, the prologue (possible-atom fixpoint and competitor
	// side tables), the fireable pass and the competitor pass.
	mPhaseUS = [numPhases]*obs.Counter{
		obs.Default().Counter("ground.phase_us.universe"),
		obs.Default().Counter("ground.phase_us.prep"),
		obs.Default().Counter("ground.phase_us.fireable"),
		obs.Default().Counter("ground.phase_us.competitor"),
	}
)

// A grounding run's phases, in order.
const (
	phaseUniverse = iota
	phasePrep
	phaseFireable
	phaseCompetitor
	numPhases
)

// phaseClock times a run's phases when metrics are on; the zero value
// (metrics off) reads no clock.
type phaseClock struct {
	on   bool
	last time.Time
	d    [numPhases]time.Duration
}

// startPhases starts the clock when metrics are on.
func startPhases() phaseClock {
	if !obs.On() {
		return phaseClock{}
	}
	return phaseClock{on: true, last: time.Now()}
}

// done charges the time since the previous mark to phase p.
func (c *phaseClock) done(p int) {
	if c.on {
		now := time.Now()
		c.d[p] += now.Sub(c.last)
		c.last = now
	}
}

// flush adds the phase times to the counters.
func (c *phaseClock) flush() {
	if c.on {
		for p, d := range c.d {
			mPhaseUS[p].Add(d.Microseconds())
		}
	}
}
