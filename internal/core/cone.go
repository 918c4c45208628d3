package core

import (
	"context"
	"slices"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/interrupt"
)

// Deriving a component's least model after a write from the nearest
// computed ancestor model. A write's cone is the least atom set that holds
// the heads of the instances the write appended, killed or resurrected,
// and is closed under "an instance with a body atom in the cone has its
// head in the cone" and under complement. Every instance headed outside
// the cone then has its whole body outside it, and so do its competitors:
// the atoms outside the cone are a splitting set whose sub-program the
// write did not touch, so the ancestor's model is still the least model on
// them (Lemma 1, Definition 2; DESIGN §4.2, §12). The child's model is a
// copy of the ancestor's with the cone's atoms replaced by the fixpoint of
// the instances headed in the cone, evaluated with the atoms they read
// from outside it fixed to the ancestor's values.

// coneShare is the largest share of a component's visible instances a cone
// may take before the model is rebuilt over the whole component instead:
// past it the copy, the walk and the sub-view cost about what the rebuild
// does.
const coneShare = 4 // a cone may take at most 1/coneShare of the instances

// carry is what the writes since a component's nearest computed model
// leave for deriving the next one.
type carry struct {
	base  *Model       // the nearest ancestor version's computed model
	seeds []interp.Lit // heads of the instances those writes changed, sorted
}

// carryFor returns the carry of component i in a child of s whose write
// changed the given instances, or nil when neither s nor any version its
// state carries from has computed the component's model. Called under
// writeMu. The chain is never longer than one: a carry names a computed
// model, never a state still waiting for one.
func (s *Snapshot) carryFor(i int, rules []ground.Rule, changed []int32) *carry {
	s.mu.Lock()
	st := s.comps[i]
	s.mu.Unlock()
	if st == nil {
		return nil
	}
	// Load the carry before looking for the model: a reader drops the carry
	// only after caching the model, so a nil carry and no model mean there
	// never was a base.
	pc := st.carry.Load()
	c := &carry{}
	if m, ok := st.least.peek(); ok {
		c.base = m
	} else if pc != nil {
		c.base = pc.base
		c.seeds = append(make([]interp.Lit, 0, len(pc.seeds)+len(changed)), pc.seeds...)
	} else {
		return nil
	}
	vis := visibleFrom(s.gp, i)
	for _, idx := range changed {
		if r := &rules[idx]; vis[r.Comp] {
			c.seeds = append(c.seeds, r.Head)
		}
	}
	slices.Sort(c.seeds)
	c.seeds = slices.Compact(c.seeds)
	return c
}

// visibleFrom reports, per component, whether its rules are visible from
// component i.
func visibleFrom(gp *ground.Program, i int) []bool {
	vis := make([]bool, gp.NumComponents())
	for _, j := range gp.Src.Above(i) {
		vis[j] = true
	}
	return vis
}

// coneModel derives component i's least model from the carry's base and
// the fixpoint of the cone of its seeds. It returns the model and the
// number of cone atoms, or a nil model and no error when the cone is too
// large to pay off; on an error no partial model is returned.
func (s *Snapshot) coneModel(ctx context.Context, i int, st *compState, c *carry) (*Model, int, error) {
	live, vis := s.liveComps(), visibleFrom(s.gp, i)
	visible := 0
	for j, ok := range vis {
		if ok {
			visible += int(live[j])
		}
	}
	x := s.occ()
	n := s.nAtoms
	lits := interp.NewBitset(2 * n) // the cone, as literals of both signs
	picked := interp.NewBitset(len(s.rules))
	nRules, nBody, nCone := 0, 0, 0
	var work []interp.Lit
	add := func(l interp.Lit) {
		if lits.Get(int(l)) {
			return
		}
		if !lits.Get(int(l.Complement())) {
			nCone++
		}
		lits.Set(int(l))
		work = append(work, l)
	}
	for _, l := range c.seeds {
		add(l)
	}
	for popped := 0; len(work) > 0; popped++ {
		if popped%1024 == 0 {
			if err := interrupt.Check(ctx, "core: write cone"); err != nil {
				return nil, 0, err
			}
		}
		l := work[len(work)-1]
		work = work[:len(work)-1]
		add(l.Complement())
		x.each(s, l.Atom(), func(r int32) {
			if rule := &s.rules[r]; rule.Head == l && vis[rule.Comp] {
				picked.Set(int(r))
				nRules, nBody = nRules+1, nBody+len(rule.Body)
			}
		})
		if nRules*coneShare > visible {
			return nil, 0, nil
		}
		x.eachBody(s, l.Atom(), func(r int32) {
			if rule := &s.rules[r]; vis[rule.Comp] {
				add(rule.Head)
			}
		})
	}
	inCone := func(a interp.AtomID) bool {
		l := interp.MkLit(a, false)
		return lits.Get(int(l)) || lits.Get(int(l.Complement()))
	}

	// The sub-program: the instances headed in the cone over the cone's
	// atoms and the boundary they read, fixed to the base's values.
	atoms := newRankSet(n)
	picked.Range(func(r int) bool {
		atoms.add(int(s.rules[r].Head.Atom()))
		for _, b := range s.rules[r].Body {
			atoms.add(int(b.Atom()))
		}
		return true
	})
	sub, ids := s.emitSlice(picked, atoms, nRules, nBody)
	base := c.base.in
	var boundary []interp.Lit
	for j, a := range ids {
		if inCone(a) {
			continue
		}
		switch base.Value(a) {
		case interp.True:
			boundary = append(boundary, interp.MkLit(interp.AtomID(j), false))
		case interp.False:
			boundary = append(boundary, interp.MkLit(interp.AtomID(j), true))
		}
	}
	fix, err := eval.NewViewOf(sub, i, sub.Rules, nil).LeastModelFromCtx(ctx, boundary)
	if err != nil {
		return nil, 0, err
	}

	in := base.CloneSized(n)
	lits.Range(func(l int) bool {
		in.RemoveLit(interp.Lit(l))
		return true
	})
	for j, a := range ids {
		if !inCone(a) {
			continue
		}
		switch fix.Value(interp.AtomID(j)) {
		case interp.True:
			in.AddLit(interp.MkLit(a, false))
		case interp.False:
			in.AddLit(interp.MkLit(a, true))
		}
	}
	gp, rules, dead := s.gp, s.rules, s.dead
	m := &Model{gp: gp, comp: i, in: in, viewFn: func() *eval.View { return st.viewOf(gp, i, rules, dead, n) }}
	m.shareBuckets(c.base, lits)
	return m, nCone, nil
}

// shareBuckets gives m the literal-index buckets base has built or begun
// for every (predicate, sign) with no atom in the cone: on those m and base
// hold the same literals.
func (m *Model) shareBuckets(base *Model, cone *interp.Bitset) {
	base.idxMu.Lock()
	defer base.idxMu.Unlock()
	if len(base.idx) == 0 {
		return
	}
	touched := make(map[ast.PredKey]bool)
	cone.Range(func(l int) bool {
		touched[m.gp.Tab.Atom(interp.Lit(l).Atom()).Key()] = true
		return true
	})
	for k, b := range base.idx {
		if !touched[k.pred] {
			if m.idx == nil {
				m.idx = make(map[litKey]*litBucket, len(base.idx))
			}
			m.idx[k] = b
		}
	}
}
