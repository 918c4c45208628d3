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
// Every index is a flat array sized by the view: per-rule arrays and CSR
// (offset, entry) pairs of int32, with no map and no per-rule slice, so a
// view costs a handful of allocations and the garbage collector has no
// pointers to scan in it.
//
// Concurrency invariant: every index a View holds — heads, bodyOff/lits,
// comps, insts, headOff/headRules, occOff/occ, compOff/compMid/comp and
// threatOff/threatMid/threat — is built once inside NewViewAt and never
// mutated afterwards (construct-once/read-many). A *View is therefore safe
// for unsynchronised sharing across goroutines; all evaluation methods
// (LeastModelCtx, StagesCtx, TEnabled, Possible, IsModel, the Definition 2
// status checks) allocate their mutable state per call. Any future lazily
// built index must either move into NewViewAt or be guarded, or it breaks
// core.Engine's concurrency contract.
type View struct {
	G    *ground.Program
	Comp int // target component position

	// nAtoms is the size of the Herbrand base the view evaluates over: the
	// atom table's first nAtoms atoms. Interpretations are sized by it, so
	// atoms a later version interns into a shared table are not in it.
	nAtoms int

	// Per visible rule (dense local indexes). Rule r's body is
	// lits[bodyOff[r]:bodyOff[r+1]], and it is instance insts[r] of rules,
	// the prefix the view was built over.
	heads   []interp.Lit
	bodyOff []int32
	lits    []interp.Lit
	comps   []int32
	insts   []int32
	rules   ground.Instances

	// Literal-indexed CSRs over int(Lit): the rules headed by l are
	// headRules[headOff[l]:headOff[l+1]], and the rules with l in their
	// body are occ[occOff[l]:occOff[l+1]] — a dense array probe in the
	// fixpoint worklist loop instead of a map lookup per pop.
	headOff   []int32
	headRules []int32
	occOff    []int32
	occ       []int32

	// comp[compOff[r]:compOff[r+1]] are the rules that can overrule or
	// defeat r: its overrulers up to compMid[r], then its defeaters.
	compOff []int32
	compMid []int32
	comp    []int32
	// threat is the reverse CSR: threat[threatOff[r]:threatOff[r+1]] are the
	// rules with r among their competitors — those r can overrule up to
	// threatMid[r], then those r can defeat — so blocking r can decrement
	// their unblocked-competitor counters. The fixpoint walks the whole
	// range; the split feeds the metrics bookkeeping that maintains
	// per-kind non-blocked counts. liveOverInit/liveDefInit count the rules
	// that start with at least one overruler resp. defeater.
	threatOff    []int32
	threatMid    []int32
	threat       []int32
	liveOverInit int
	liveDefInit  int
}

// NewView builds the view of g from the component at position comp, over
// every rule instance of g.
func NewView(g *ground.Program, comp int) *View {
	return NewViewOf(g, comp, g.Rules, nil)
}

// NewViewOf builds the view of g from the component at position comp over
// a prefix of g's instances — typically the one a versioned snapshot
// pinned — excluding the instance indexes in dead (retracted facts). The
// caller guarantees the dead set stays immutable for the life of the view;
// the prefix is, even while later snapshot updates append further
// instances to g, which is what makes a built view safe for unsynchronised
// sharing.
func NewViewOf(g *ground.Program, comp int, rules ground.Instances, dead map[int32]struct{}) *View {
	return NewViewAt(g, comp, rules, dead, g.Tab.Len())
}

// NewViewAt is NewViewOf over the first nAtoms atoms of g's table — the
// Herbrand base of the version that pinned rules, which must mention no
// atom at or past nAtoms.
func NewViewAt(g *ground.Program, comp int, rules ground.Instances, dead map[int32]struct{}, nAtoms int) *View {
	if comp < 0 || comp >= g.NumComponents() {
		panic(fmt.Sprintf("eval: component index %d out of range", comp))
	}
	v := &View{G: g, Comp: comp, nAtoms: nAtoms, rules: rules}
	visible := make([]bool, g.NumComponents()) // ground(C*): C and every component above it
	for j := range visible {
		visible[j] = j == comp || g.Src.Less(comp, j)
	}
	n, total := 0, 0
	for i := 0; i < rules.Len(); i++ {
		_, c, body := rules.At(i)
		if !visible[c] {
			continue
		}
		if _, gone := dead[int32(i)]; gone {
			continue
		}
		n++
		total += len(body)
	}
	nLits := 2 * nAtoms
	// Every int32 index the counts above size, in one allocation: eight
	// per-rule arrays, the two literal-indexed offset arrays and the body
	// occurrences.
	ints := make([]int32, 8*n+3+2*(nLits+1)+total)
	carve := func(k int) []int32 {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	v.comps, v.insts = carve(n), carve(n)
	v.bodyOff = carve(n + 1)
	v.compOff, v.compMid = carve(n+1), carve(n)
	v.threatOff, v.threatMid = carve(n+1), carve(n)
	v.headOff, v.occOff = carve(nLits+1), carve(nLits+1)
	v.occ, v.headRules = carve(total), carve(n)
	v.heads = make([]interp.Lit, n)
	v.lits = make([]interp.Lit, 0, total)
	li := 0
	for i := 0; i < rules.Len(); i++ {
		h, c, body := rules.At(i)
		if !visible[c] {
			continue
		}
		if _, gone := dead[int32(i)]; gone {
			continue
		}
		v.heads[li] = h
		v.comps[li] = c
		v.insts[li] = int32(i)
		v.lits = append(v.lits, body...)
		v.bodyOff[li+1] = int32(len(v.lits))
		v.headOff[int(h)+1]++
		for _, l := range body {
			v.occOff[int(l)+1]++
		}
		li++
	}
	// Both literal CSRs: prefix-sum the counts, fill by advancing each
	// literal's start, then shift the starts back.
	for i := 0; i < nLits; i++ {
		v.headOff[i+1] += v.headOff[i]
		v.occOff[i+1] += v.occOff[i]
	}
	for r := 0; r < n; r++ {
		h := int(v.heads[r])
		v.headRules[v.headOff[h]] = int32(r)
		v.headOff[h]++
		for _, l := range v.Body(r) {
			v.occ[v.occOff[int(l)]] = int32(r)
			v.occOff[int(l)]++
		}
	}
	copy(v.headOff[1:], v.headOff[:nLits])
	copy(v.occOff[1:], v.occOff[:nLits])
	v.headOff[0], v.occOff[0] = 0, 0

	// Competitors: every rule with the complementary head, less those in a
	// strictly more general component. The rules of r's own component are
	// defeaters without an order lookup.
	bound := 0
	for r := 0; r < n; r++ {
		bound += len(v.HeadRules(v.heads[r].Complement()))
	}
	v.comp = make([]int32, 0, bound)
	threats := make([]int32, 2*n) // per rule: how many rules it can overrule, then defeat
	canOverrule, canDefeat := threats[:n], threats[n:]
	for r := 0; r < n; r++ {
		cr := int(v.comps[r])
		rivals := v.HeadRules(v.heads[r].Complement())
		for _, o := range rivals {
			if co := int(v.comps[o]); co != cr && g.Src.Less(co, cr) {
				v.comp = append(v.comp, o)
				canOverrule[o]++
			}
		}
		v.compMid[r] = int32(len(v.comp))
		for _, o := range rivals {
			if co := int(v.comps[o]); co == cr || !g.Src.Less(co, cr) && !g.Src.Less(cr, co) {
				v.comp = append(v.comp, o)
				canDefeat[o]++
			}
		}
		v.compOff[r+1] = int32(len(v.comp))
		if v.compMid[r] > v.compOff[r] {
			v.liveOverInit++
		}
		if v.compOff[r+1] > v.compMid[r] {
			v.liveDefInit++
		}
	}
	// The threat CSR: canOverrule and canDefeat become each rule's fill
	// cursors for its two kinds, so both parts come out ascending.
	v.threat = make([]int32, len(v.comp))
	for o := 0; o < n; o++ {
		v.threatMid[o] = v.threatOff[o] + canOverrule[o]
		v.threatOff[o+1] = v.threatMid[o] + canDefeat[o]
		canOverrule[o], canDefeat[o] = v.threatOff[o], v.threatMid[o]
	}
	for r := 0; r < n; r++ {
		for j := v.compOff[r]; j < v.compOff[r+1]; j++ {
			cursor := &canDefeat[v.comp[j]]
			if j < v.compMid[r] {
				cursor = &canOverrule[v.comp[j]]
			}
			v.threat[*cursor] = int32(r)
			*cursor++
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
func (v *View) Body(r int) []interp.Lit { return v.lits[v.bodyOff[r]:v.bodyOff[r+1]:v.bodyOff[r+1]] }

// RuleComp returns the owning component position of visible rule r.
func (v *View) RuleComp(r int) int { return int(v.comps[r]) }

// GroundRule returns the underlying ground rule of visible rule r, decoded.
func (v *View) GroundRule(r int) ground.Rule { return v.rules.Rule(int(v.insts[r])) }

// NumAtoms returns the size of the Herbrand base the view evaluates over.
func (v *View) NumAtoms() int { return v.nAtoms }

// NewInterp returns an empty interpretation over the view's Herbrand base.
func (v *View) NewInterp() *interp.Interp { return interp.NewSized(v.G.Tab, v.nAtoms) }

// Overrulers returns the local indexes of the rules that can overrule r
// (complementary head in a strictly more specific component). Shared slice.
func (v *View) Overrulers(r int) []int32 { return v.comp[v.compOff[r]:v.compMid[r]:v.compMid[r]] }

// defeaters returns the local indexes of the rules that can defeat r
// (complementary head in the same or an incomparable component).
func (v *View) defeaters(r int) []int32 { return v.comp[v.compMid[r]:v.compOff[r+1]] }

// Competitors returns the local indexes of every rule that can overrule or
// defeat r: its overrulers, then its defeaters. Shared slice.
func (v *View) Competitors(r int) []int32 { return v.comp[v.compOff[r]:v.compOff[r+1]:v.compOff[r+1]] }

// HeadRules returns the local indexes of the visible rules with the given
// head literal, ascending; none for a literal outside the view's Herbrand
// base. Shared slice.
func (v *View) HeadRules(l interp.Lit) []int32 {
	if l < 0 || int(l) >= 2*v.nAtoms {
		return nil
	}
	return v.headRules[v.headOff[l]:v.headOff[l+1]:v.headOff[l+1]]
}

// bodyOcc returns the local indexes of the rules with l among their body
// literals (CSR slice; shared, do not modify).
func (v *View) bodyOcc(l interp.Lit) []int32 {
	return v.occ[v.occOff[int(l)]:v.occOff[int(l)+1]]
}

// Applicable reports B(r) ⊆ I (Definition 2).
func (v *View) Applicable(r int, in *interp.Interp) bool {
	for _, l := range v.Body(r) {
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
	for _, l := range v.Body(r) {
		if in.HasLit(l.Complement()) {
			return true
		}
	}
	return false
}

// Overruled reports that a non-blocked rule with complementary head exists
// in a strictly more specific component (Definition 2).
func (v *View) Overruled(r int, in *interp.Interp) bool {
	for _, o := range v.Overrulers(r) {
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
	for _, o := range v.Overrulers(r) {
		if v.Applied(int(o), in) {
			return true
		}
	}
	return false
}

// Defeated reports that a non-blocked rule with complementary head exists
// in the same or an incomparable component (Definition 2).
func (v *View) Defeated(r int, in *interp.Interp) bool {
	for _, d := range v.defeaters(r) {
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
