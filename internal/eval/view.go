// Package eval implements the declarative semantics of ordered logic
// programs on ground instances: the rule statuses of Definition 2
// (applicable, applied, blocked, overruled, defeated), the model conditions
// of Definition 3, the ordered immediate transformation V of Definition 4
// with semi-naive least-fixpoint evaluation, the enabled-version
// T operator of Definition 8, and the assumption-set machinery of
// Definitions 6–7 (Laenens, Saccà, Vermeir, SIGMOD 1990).
package eval

import (
	"fmt"

	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/obs"
)

// View is a grounded ordered program as seen from one target component C:
// the rules of ground(C*) — the component's own rules plus all inherited
// ones — with precomputed competitor relations.
//
// For a rule r, a rule r' with complementary head is an *overruler* when
// C(r') < C(r) (a strictly more specific component) and a *defeater* when
// C(r') = C(r) or the components are incomparable. Rules in strictly more
// general components can do neither.
//
// Concurrency invariant: every index a View holds — heads, bodies, comps,
// srcs, overrulers, defeaters, occOff/occ, headOf, headAtom, threatened,
// threatOver/threatDef, overInit/defInit — is built once inside NewView and
// never mutated afterwards (construct-once/
// read-many). A *View is therefore safe for unsynchronised sharing across
// goroutines; all evaluation methods (VOnce, LeastModelCtx, TEnabled,
// IsModel, the Definition 2 status checks) allocate their mutable state
// per call. Any future lazily built index must either move into NewView or
// be guarded, or it breaks core.Engine's concurrency contract.
type View struct {
	G    *ground.Program
	Comp int // target component position

	// nAtoms is the size of the Herbrand base the view evaluates over: the
	// atom table's first nAtoms atoms. Interpretations are sized by it, so
	// atoms a later version interns into a shared table are not in it.
	nAtoms int

	// Per visible rule (dense local indexes).
	heads  []interp.Lit
	bodies [][]interp.Lit
	comps  []int32
	srcs   []*ground.Rule

	overrulers [][]int32 // local rule indexes that can overrule r
	defeaters  [][]int32 // local rule indexes that can defeat r

	// Body occurrences in CSR layout, indexed by int(Lit): rules with lit l
	// in their body are occ[occOff[l]:occOff[l+1]]. A dense array probe in
	// the fixpoint worklist loop instead of a map lookup per pop.
	occOff   []int32
	occ      []int32
	headOf   map[interp.Lit][]int32
	headAtom map[interp.AtomID][]int32
	// threatened[r] lists the rules that have r among their competitors
	// (the reverse of overrulers/defeaters), so blocking r can decrement
	// their unblocked-competitor counters.
	threatened [][]int32
	// threatOver and threatDef split threatened by competitor kind. The
	// fixpoint worklist only walks the combined index; the split ones feed
	// the metrics bookkeeping that maintains per-kind non-blocked counts,
	// seeded from overInit/defInit (initial per-rule overruler/defeater
	// counts) and liveOverInit/liveDefInit (how many rules start with at
	// least one overruler resp. defeater).
	threatOver   [][]int32
	threatDef    [][]int32
	overInit     []int32
	defInit      []int32
	liveOverInit int
	liveDefInit  int
}

// NewView builds the view of g from the component at position comp, over
// every rule instance of g.
func NewView(g *ground.Program, comp int) *View {
	return NewViewOf(g, comp, g.Rules, nil)
}

// NewViewOf builds the view of g from the component at position comp over
// an explicit rule slice — typically a pinned prefix of g.Rules captured by
// a versioned snapshot — excluding the instance indexes in dead (retracted
// facts). rules must alias a prefix of g.Rules so indexes agree with the
// dead set; the caller guarantees both stay immutable for the life of the
// view, which is what makes a built view safe for unsynchronised sharing
// even while later snapshot updates append further instances to g.Rules.
func NewViewOf(g *ground.Program, comp int, rules []ground.Rule, dead map[int32]struct{}) *View {
	return NewViewAt(g, comp, rules, dead, g.Tab.Len())
}

// NewViewAt is NewViewOf over the first nAtoms atoms of g's table — the
// Herbrand base of the version that pinned rules, which must mention no
// atom at or past nAtoms.
func NewViewAt(g *ground.Program, comp int, rules []ground.Rule, dead map[int32]struct{}, nAtoms int) *View {
	if comp < 0 || comp >= g.NumComponents() {
		panic(fmt.Sprintf("eval: component index %d out of range", comp))
	}
	v := &View{
		G:        g,
		Comp:     comp,
		nAtoms:   nAtoms,
		headOf:   make(map[interp.Lit][]int32),
		headAtom: make(map[interp.AtomID][]int32),
	}
	visible := make(map[int]bool)
	for _, j := range g.Src.Above(comp) {
		visible[j] = true
	}
	for i := range rules {
		r := &rules[i]
		if !visible[int(r.Comp)] {
			continue
		}
		if _, gone := dead[int32(i)]; gone {
			continue
		}
		li := int32(len(v.heads))
		v.heads = append(v.heads, r.Head)
		v.bodies = append(v.bodies, r.Body)
		v.comps = append(v.comps, r.Comp)
		v.srcs = append(v.srcs, r)
		v.headOf[r.Head] = append(v.headOf[r.Head], li)
		v.headAtom[r.Head.Atom()] = append(v.headAtom[r.Head.Atom()], li)
	}
	// CSR body-occurrence index: count per literal, prefix-sum, fill.
	nLits := 2 * nAtoms
	v.occOff = make([]int32, nLits+1)
	total := 0
	for _, body := range v.bodies {
		total += len(body)
		for _, l := range body {
			v.occOff[int(l)+1]++
		}
	}
	for i := 0; i < nLits; i++ {
		v.occOff[i+1] += v.occOff[i]
	}
	v.occ = make([]int32, total)
	next := make([]int32, nLits)
	copy(next, v.occOff[:nLits])
	for li, body := range v.bodies {
		for _, l := range body {
			v.occ[next[int(l)]] = int32(li)
			next[int(l)]++
		}
	}
	n := len(v.heads)
	v.overrulers = make([][]int32, n)
	v.defeaters = make([][]int32, n)
	v.threatened = make([][]int32, n)
	v.threatOver = make([][]int32, n)
	v.threatDef = make([][]int32, n)
	for r := 0; r < n; r++ {
		for _, o := range v.headOf[v.heads[r].Complement()] {
			cr, co := int(v.comps[r]), int(v.comps[o])
			switch {
			case v.G.Src.Less(co, cr):
				v.overrulers[r] = append(v.overrulers[r], o)
				v.threatened[o] = append(v.threatened[o], int32(r))
				v.threatOver[o] = append(v.threatOver[o], int32(r))
			case !v.G.Src.Less(cr, co):
				// Same component or incomparable: defeater.
				v.defeaters[r] = append(v.defeaters[r], o)
				v.threatened[o] = append(v.threatened[o], int32(r))
				v.threatDef[o] = append(v.threatDef[o], int32(r))
			}
		}
	}
	v.overInit = make([]int32, n)
	v.defInit = make([]int32, n)
	for r := 0; r < n; r++ {
		v.overInit[r] = int32(len(v.overrulers[r]))
		v.defInit[r] = int32(len(v.defeaters[r]))
		if v.overInit[r] > 0 {
			v.liveOverInit++
		}
		if v.defInit[r] > 0 {
			v.liveDefInit++
		}
	}
	if obs.On() {
		mViewsBuilt.Inc()
	}
	return v
}

// NumRules returns the number of visible ground rules.
func (v *View) NumRules() int { return len(v.heads) }

// Head returns the head literal of visible rule r.
func (v *View) Head(r int) interp.Lit { return v.heads[r] }

// Body returns the body literals of visible rule r (shared slice).
func (v *View) Body(r int) []interp.Lit { return v.bodies[r] }

// RuleComp returns the owning component position of visible rule r.
func (v *View) RuleComp(r int) int { return int(v.comps[r]) }

// GroundRule returns the underlying ground rule of visible rule r.
func (v *View) GroundRule(r int) *ground.Rule { return v.srcs[r] }

// NumAtoms returns the size of the Herbrand base the view evaluates over.
func (v *View) NumAtoms() int { return v.nAtoms }

// NewInterp returns an empty interpretation over the view's Herbrand base.
func (v *View) NewInterp() *interp.Interp { return interp.NewSized(v.G.Tab, v.nAtoms) }

// Overrulers returns the local indexes of the rules that can overrule r
// (complementary head in a strictly more specific component). Shared slice.
func (v *View) Overrulers(r int) []int32 { return v.overrulers[r] }

// HeadRules returns the local indexes of the visible rules with the given
// head literal. Shared slice.
func (v *View) HeadRules(l interp.Lit) []int32 { return v.headOf[l] }

// bodyOcc returns the local indexes of the rules with l among their body
// literals (CSR slice; shared, do not modify).
func (v *View) bodyOcc(l interp.Lit) []int32 {
	return v.occ[v.occOff[int(l)]:v.occOff[int(l)+1]]
}

// Competitors returns the local indexes of every rule that can overrule or
// defeat r. The slice is freshly allocated.
func (v *View) Competitors(r int) []int32 {
	out := make([]int32, 0, len(v.overrulers[r])+len(v.defeaters[r]))
	out = append(out, v.overrulers[r]...)
	return append(out, v.defeaters[r]...)
}

// Applicable reports B(r) ⊆ I (Definition 2).
func (v *View) Applicable(r int, in *interp.Interp) bool {
	for _, l := range v.bodies[r] {
		if !in.HasLit(l) {
			return false
		}
	}
	return true
}

// Applied reports that r is applicable and H(r) ∈ I (Definition 2).
func (v *View) Applied(r int, in *interp.Interp) bool {
	return in.HasLit(v.heads[r]) && v.Applicable(r, in)
}

// Blocked reports that some body literal's complement is in I
// (Definition 2).
func (v *View) Blocked(r int, in *interp.Interp) bool {
	for _, l := range v.bodies[r] {
		if in.HasLit(l.Complement()) {
			return true
		}
	}
	return false
}

// Overruled reports that a non-blocked rule with complementary head exists
// in a strictly more specific component (Definition 2).
func (v *View) Overruled(r int, in *interp.Interp) bool {
	for _, o := range v.overrulers[r] {
		if !v.Blocked(int(o), in) {
			return true
		}
	}
	return false
}

// OverruledByApplied reports that an *applied* rule with complementary head
// exists in a strictly more specific component (the stronger overruling
// demanded by Definition 3, condition (a)).
func (v *View) OverruledByApplied(r int, in *interp.Interp) bool {
	for _, o := range v.overrulers[r] {
		if v.Applied(int(o), in) {
			return true
		}
	}
	return false
}

// Defeated reports that a non-blocked rule with complementary head exists
// in the same or an incomparable component (Definition 2).
func (v *View) Defeated(r int, in *interp.Interp) bool {
	for _, d := range v.defeaters[r] {
		if !v.Blocked(int(d), in) {
			return true
		}
	}
	return false
}

// Status bundles the Definition 2 statuses of one rule for diagnostics.
type Status struct {
	Applicable bool
	Applied    bool
	Blocked    bool
	Overruled  bool
	Defeated   bool
}

// Statuses returns all Definition 2 statuses of visible rule r w.r.t. in.
func (v *View) Statuses(r int, in *interp.Interp) Status {
	return Status{
		Applicable: v.Applicable(r, in),
		Applied:    v.Applied(r, in),
		Blocked:    v.Blocked(r, in),
		Overruled:  v.Overruled(r, in),
		Defeated:   v.Defeated(r, in),
	}
}
