package eval

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/interp"
	"repro/internal/interrupt"
	"repro/internal/obs"
)

// checkStride is the cooperative-cancellation polling interval of the
// fixpoint loop: one context poll per this many worklist pops. Small
// enough that a cancelled context is observed well within milliseconds on
// any real program, large enough to keep the poll off the profile.
const checkStride = 256

// kindScratch recycles the per-kind competitor-count scratch the fixpoint
// uses for its metrics bookkeeping, so an enabled registry does not add a
// per-run allocation to evaluation.
var kindScratch = sync.Pool{New: func() any { return new([]int32) }}

// LeastModelCtx computes lfp(V) — the least model of the program in the
// view's component (Proposition 1, Theorem 1(b)) — with a semi-naive
// algorithm.
//
// A rule fires when its unsatisfied-body count reaches zero and all its
// overrulers and defeaters are blocked. Both events are monotone along the
// fixpoint: adding literals can only satisfy more body literals and block
// more competitors, so per-rule counters driven by a worklist of newly
// derived literals compute the fixpoint in time linear in the total number
// of body occurrences and competitor edges.
//
// Cancellation is cooperative: the worklist loop polls the context every
// checkStride pops (and once up front), so a cancelled or expired context
// stops the fixpoint within one checkpoint interval and returns an
// interrupt.Error. No partial interpretation is returned: a truncated
// prefix of lfp(V) is not a model of anything.
func (v *View) LeastModelCtx(ctx context.Context) (*interp.Interp, error) {
	return v.LeastModelFromCtx(ctx, nil)
}

// LeastModelFromCtx is LeastModelCtx started from the interpretation seed
// instead of ∅: the least fixpoint of V above seed. seed must be
// consistent and mention no atom a visible rule heads — the caller fixes
// the values of atoms the view only reads, such as the boundary of a
// splitting set evaluated elsewhere. The result holds seed. With a nil
// seed it is lfp(V) itself.
func (v *View) LeastModelFromCtx(ctx context.Context, seed []interp.Lit) (*interp.Interp, error) {
	return v.leastFrom(ctx, seed, nil)
}

// StagesCtx runs LeastModelCtx's fixpoint and returns each literal's
// stage, indexed by int(Lit): the round k at which the literal first
// appears in V↑k(∅), the naive iteration of Definition 4, and 0 for a
// literal outside lfp(V). Explanations read their well-founded order off
// it.
//
// The worklist is FIFO, so it pops literals in nondecreasing stage order:
// a rule's last condition — a body literal, or the first blocker of its
// last live competitor — is met by the pop of a literal at the largest
// stage among its conditions, and the rule fires one stage later. The
// rules that fire on ∅ give stage 1.
func (v *View) StagesCtx(ctx context.Context) ([]int32, error) {
	stages := make([]int32, 2*v.nAtoms)
	if _, err := v.leastFrom(ctx, nil, stages); err != nil {
		return nil, err
	}
	return stages, nil
}

// leastFrom is the semi-naive fixpoint of LeastModelFromCtx; with a
// non-nil stages (and a nil seed) it also records each derived literal's
// stage there.
func (v *View) leastFrom(ctx context.Context, seed []interp.Lit, stages []int32) (*interp.Interp, error) {
	const stage = "eval: semi-naive fixpoint"
	if err := interrupt.Check(ctx, stage); err != nil {
		return nil, err
	}
	n := len(v.heads)
	// One backing array per element type: counters (unsat, unblocked) and
	// flags (blocked, fired) each share an allocation.
	counters := make([]int32, 2*n)
	unsat, unblocked := counters[:n], counters[n:]
	flags := make([]bool, 2*n)
	blocked, fired := flags[:n], flags[n:]
	in := v.NewInterp()
	// Each queued literal is a seed or a newly derived head.
	queue := make([]interp.Lit, 0, n+len(seed))
	for _, l := range seed {
		if !in.AddLit(l) {
			return nil, fmt.Errorf("eval: inconsistent seed on %s", v.G.Tab.LitString(l))
		}
		queue = append(queue, l)
	}

	// track latches the metrics registry's enabled state for the whole run
	// so bookkeeping and flush agree even if it is toggled mid-run. All
	// Definition 2 status bookkeeping hides inside branches the loop takes
	// at most once per rule (body became satisfied, rule became blocked),
	// so a disabled registry costs the per-edge hot paths nothing:
	// nbOver/nbDef are the per-kind non-blocked competitor counts
	// (maintained only when a rule blocks, off the combined unblocked
	// counter the fire test uses),
	// liveOver/liveDef count the rules still holding a non-blocked
	// overruler resp. defeater, and satBlocked lists the rules whose body
	// was satisfied while some competitor was live — the only candidates
	// for applied-without-firing.
	var nFired, nDerived, nBlocked int
	track := obs.On()
	var nbOver, nbDef, satBlocked []int32
	liveOver, liveDef := 0, 0
	if track && v.liveOverInit+v.liveDefInit > 0 {
		// Pooled scratch: the initial counts overwrite whatever a
		// previous run left.
		scratch := kindScratch.Get().(*[]int32)
		defer kindScratch.Put(scratch)
		if cap(*scratch) < 2*n {
			*scratch = make([]int32, 2*n)
		}
		kind := (*scratch)[:2*n]
		nbOver, nbDef = kind[:n], kind[n:]
		for r := 0; r < n; r++ {
			nbOver[r] = v.compMid[r] - v.compOff[r]
			nbDef[r] = v.compOff[r+1] - v.compMid[r]
		}
		liveOver, liveDef = v.liveOverInit, v.liveDefInit
	}

	// at is the stage a head derived now enters at (StagesCtx).
	at := int32(1)
	fire := func(r int) error {
		if fired[r] {
			return nil
		}
		fired[r] = true
		nFired++
		h := v.heads[r]
		if in.HasLit(h) {
			return nil
		}
		if !in.AddLit(h) {
			return fmt.Errorf("eval: least-model fixpoint derived inconsistent pair on %s", v.G.Tab.LitString(h))
		}
		nDerived++
		if stages != nil {
			stages[h] = at
		}
		queue = append(queue, h)
		return nil
	}

	for r := 0; r < n; r++ {
		unsat[r] = v.bodyOff[r+1] - v.bodyOff[r]
		unblocked[r] = v.compOff[r+1] - v.compOff[r]
	}
	for r := 0; r < n; r++ {
		if unsat[r] == 0 && unblocked[r] == 0 {
			if err := fire(r); err != nil {
				return nil, err
			}
		} else if track && unsat[r] == 0 {
			satBlocked = append(satBlocked, int32(r))
		}
	}
	pops := 0
	for head := 0; head < len(queue); head++ {
		pops++
		if pops%checkStride == 0 {
			if err := interrupt.Check(ctx, stage); err != nil {
				return nil, err
			}
		}
		lit := queue[head]
		if stages != nil {
			at = stages[lit] + 1
		}
		// The new literal satisfies body occurrences of itself...
		for _, r := range v.bodyOcc(lit) {
			unsat[r]--
			if unsat[r] == 0 {
				if unblocked[r] == 0 {
					if err := fire(int(r)); err != nil {
						return nil, err
					}
				} else if track {
					satBlocked = append(satBlocked, r)
				}
			}
		}
		// ...and blocks every rule with the complement in its body, which
		// in turn releases the rules those threatened.
		for _, r := range v.bodyOcc(lit.Complement()) {
			if blocked[r] {
				continue
			}
			blocked[r] = true
			nBlocked++
			if track {
				// Per-kind live-competitor maintenance, once per rule
				// that blocks: each edge decrement reaches zero at most
				// once, which is exactly when its target stops being
				// overruled resp. defeated.
				for _, s := range v.threat[v.threatOff[r]:v.threatMid[r]] {
					if nbOver[s]--; nbOver[s] == 0 {
						liveOver--
					}
				}
				for _, s := range v.threat[v.threatMid[r]:v.threatOff[r+1]] {
					if nbDef[s]--; nbDef[s] == 0 {
						liveDef--
					}
				}
			}
			for _, s := range v.threat[v.threatOff[r]:v.threatOff[r+1]] {
				unblocked[s]--
				if unsat[s] == 0 && unblocked[s] == 0 {
					if err := fire(int(s)); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if track {
		// Definition 2 status counts w.r.t. the final model, assembled
		// from the run's own transition bookkeeping with no per-rule
		// postpass. A fired rule is applied (fire implies unsat == 0 and
		// puts the head in the model) and fires at most once, so nFired
		// counts those; a non-fired applied rule must have had its body
		// satisfied while a competitor was still live — with all of them
		// blocked it would have fired — so satBlocked holds every other
		// candidate and only the head-membership check remains. The
		// blocked flag flips exactly once per blocked rule, making
		// nBlocked the blocked count, and liveOver/liveDef are the
		// rules still holding a non-blocked overruler resp. defeater —
		// Definition 2's overruled and defeated, exactly.
		applied := int64(nFired)
		for _, r := range satBlocked {
			if !fired[r] && in.HasLit(v.heads[r]) {
				applied++
			}
		}
		mFixpoints.Inc()
		mFixpointOps.Add(int64(pops))
		mFired.Add(int64(nFired))
		mDerived.Add(int64(nDerived))
		mBlockEvents.Add(int64(nBlocked))
		mRulesApplied.Add(applied)
		mRulesBlocked.Add(int64(nBlocked))
		mRulesOverruled.Add(int64(liveOver))
		mRulesDefeated.Add(int64(liveDef))
	}
	return in, nil
}

// TEnabled computes lfp(T) over the enabled version C^e_M — the applied
// rules of ground(C*) w.r.t. m (Definition 8, Lemma 2). The result is
// always a subset of m.
func (v *View) TEnabled(m *interp.Interp) *interp.Interp {
	pos, neg := interp.NewBitset(v.nAtoms), interp.NewBitset(v.nAtoms)
	v.lfpT(m, pos, neg)
	// The heads of applied rules are members of the consistent m, so
	// pos and neg are disjoint.
	return interp.FromBitsets(v.G.Tab, pos, neg)
}

// Possible computes lfp(T) over every visible rule, ignoring overruling
// and defeat and tracking the two signs independently: a literal outside
// it is in no assumption-free model, since no enabled version can derive
// it.
func (v *View) Possible() (pos, neg *interp.Bitset) {
	pos, neg = interp.NewBitset(v.nAtoms), interp.NewBitset(v.nAtoms)
	v.lfpT(nil, pos, neg)
	return pos, neg
}

// lfpT is the one fixpoint of T (Definition 8) over a set of visible
// rules: m's applied rules, or every rule when m is nil. It adds the
// derived literals to pos and neg, one bit per atom and sign, so a literal
// and its complement may both be derived. It is semi-naive: a rule's count
// of underived body occurrences drops as its body literals are derived,
// and it fires at zero; a rule outside the set starts below zero and never
// fires.
func (v *View) lfpT(m *interp.Interp, pos, neg *interp.Bitset) {
	n := len(v.heads)
	unsat := make([]int32, n)
	queue := make([]interp.Lit, 0, n)
	derive := func(l interp.Lit) {
		b := pos
		if l.Neg() {
			b = neg
		}
		if a := int(l.Atom()); !b.Get(a) {
			b.Set(a)
			queue = append(queue, l)
		}
	}
	for r := 0; r < n; r++ {
		if m != nil && !v.Applied(r, m) {
			unsat[r] = -1
			continue
		}
		if unsat[r] = v.bodyOff[r+1] - v.bodyOff[r]; unsat[r] == 0 {
			derive(v.heads[r])
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, r := range v.bodyOcc(queue[head]) {
			if unsat[r]--; unsat[r] == 0 {
				derive(v.heads[r])
			}
		}
	}
}
