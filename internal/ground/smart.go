package ground

import (
	"math/bits"
	"slices"

	"repro/internal/ast"
	"repro/internal/datalog"
	"repro/internal/interp"
	"repro/internal/storage"
	"repro/internal/term"
)

// domKey is the auxiliary unary predicate holding the Herbrand universe; it
// binds variables that no body literal binds ("$" cannot appear in source
// predicates, so there is no collision).
var domKey = ast.PredKey{Name: "$dom", Arity: 1}

// encKey maps a source predicate and a sign to the possible-atom relation:
// "t:" relations over-approximate possibly-true atoms, "f:" relations
// possibly-false ones.
func encKey(k ast.PredKey, neg bool) ast.PredKey {
	if neg {
		return ast.PredKey{Name: "f:" + k.Name, Arity: k.Arity}
	}
	return ast.PredKey{Name: "t:" + k.Name, Arity: k.Arity}
}

// smart performs relevance-based grounding:
//
//  1. A Datalog fixpoint computes PT/PF, the possibly-true and
//     possibly-false over-approximations, ignoring all overruling and
//     defeating (which only ever remove derivations).
//  2. The fireable pass instantiates each rule over PT/PF joins: these are
//     the instances that can ever become applicable.
//  3. The competitor pass instantiates, for every retained head literal L,
//     the rules with head ¬L in components that can overrule or defeat an
//     owner of L — exhaustively over the universe for variables the head
//     match leaves open, because a competitor with an underivable body is
//     still never blocked and therefore defeats forever.
//
// Every model-relevant instance is retained; the atom table is the
// relevant Herbrand base (atoms omitted are undefined in every least,
// assumption-free or stable model).
//
// The working state (possible-atom store, encoded rules, targets,
// watermarks) is kept on the grounder so delta.go can assert and retract
// facts incrementally after the base grounding.
func (g *grounder) smart(clock *phaseClock) error {
	if err := g.smartPrep(); err != nil {
		return err
	}
	g.prepCompetitors()
	clock.done(phasePrep)
	if err := g.fireable(); err != nil {
		return err
	}
	clock.done(phaseFireable)

	// Competitor pass: instantiate the potential competitors of every
	// target.
	preComp := g.cols.len
	if err := g.competitorsOf(g.takeGrown()); err != nil {
		return err
	}
	g.compInstances += g.cols.len - preComp
	g.recordMarks()
	clock.done(phaseCompetitor)
	return nil
}

// fireable is the fireable pass: every encoded rule joined over the
// possible-atom store, with the ground facts instantiated in source order
// between them. Every instance it records registers its head as a
// competitor-pass target, together with the components owning it.
func (g *grounder) fireable() error {
	g.registering = true
	g.pass++
	next := 0 // the next source fact
	for i := range g.dlSrc {
		if err := g.check("ground: fireable pass"); err != nil {
			return err
		}
		var err error
		if next, err = g.factsBefore(next, i); err != nil {
			return err
		}
		if err := g.joinInstantiate(&g.dlSrc[i]); err != nil {
			return err
		}
	}
	_, err := g.factsBefore(next, len(g.dlSrc))
	g.registering = false
	return err
}

// factsBefore instantiates, from the source fact at index next on, the
// facts seeded before dlSrc[i] (skipping those not taken as facts), and
// returns the index of the first fact left.
func (g *grounder) factsBefore(next, i int) (int, error) {
	var run [factBatch]int32
	fs := run[:0]
	for ; next < len(g.facts); next++ {
		at := int(g.facts[next].at)
		if at > i {
			break
		}
		if at < 0 {
			continue
		}
		if fs = append(fs, int32(next)); len(fs) == factBatch {
			if err := g.instantiateFacts(fs, true); err != nil {
				return next, err
			}
			fs = fs[:0]
		}
	}
	return next, g.instantiateFacts(fs, true)
}

// takeGrown returns the targets the registration pass grew and clears the
// list.
func (g *grounder) takeGrown() []int32 {
	grown := g.grown
	g.grown = nil
	return grown
}

// smartPrep is smart grounding's prologue: store set-up, the $dom fill,
// rule encoding and the possible-atom Datalog fixpoint, with the ground
// facts seeded straight from their ids.
func (g *grounder) smartPrep() error {
	// The store shares the atom table's term table, so a term interned while
	// filling relations is the same id the instantiation pass sees.
	g.st = storage.NewStoreWith(g.tab.TermTable())

	// One datalog rule per compiled rule, cut from one slab; each ground
	// fact is a tuple seeded just before the rule that follows it.
	slab := make([]datalog.Rule, 0, len(g.crules))
	dl := make([]*datalog.Rule, 0, len(g.crules))
	g.dlSrc = make([]srcRule, 0, len(g.crules))
	seeds := make([]datalog.Fact, 0, len(g.facts))
	nFacts := make([]int, 2*len(g.preds)) // seeds per predicate side
	for _, ref := range g.seq {
		var c *crule
		if ref < 0 {
			f := &g.facts[^ref]
			r := g.cols.rt.rule(f.comp, f.src)
			if g.rel != nil && !g.rel.RuleDemanded(r) {
				g.skippedRules++
				continue
			}
			guard, guarded := g.guardOf(r)
			if !guarded {
				f.at = int32(len(dl))
				seeds = append(seeds, datalog.Fact{Rel: g.relOf(f.pid, f.neg, true), Args: g.argsOf(f), At: len(dl)})
				nFacts[2*int(f.pid)+b2i(f.neg)]++
				continue
			}
			// A fact of a magic-restricted predicate joins its demand
			// guard: a rule of one body literal.
			var atoms []catom
			var pats []storage.Pat
			c = &crule{}
			g.compileRule(g.tab.TermTable(), r, int(f.comp), f.src, c, &atoms, &pats)
			dl = append(dl, &datalog.Rule{Head: datalog.Lit{Key: g.preds[f.pid].enc[b2i(f.neg)], Args: r.Head.Atom.Args}, Body: []datalog.Lit{guard}})
			g.dlSrc = append(g.dlSrc, g.encodeSrc(c, dl[len(dl)-1].Body))
			continue
		}
		// Goal-directed slicing: rules whose head predicate the goal never
		// demands are dropped outright, and rules defining a
		// magic-restricted predicate get the demand guard prepended to
		// their encoded body — both the possible-atom fixpoint and the
		// fireable join then only explore magic-reachable bindings. The
		// competitor pass is untouched: it enumerates over the full
		// universe per target, and its possible-atom joins only read
		// EDB-exempt (never restricted) relations.
		c = &g.crules[ref]
		r := c.r
		if g.rel != nil && !g.rel.RuleDemanded(r) {
			g.skippedRules++
			continue
		}
		body := encodeBody(r)
		if guard, ok := g.guardOf(r); ok {
			body = append([]datalog.Lit{guard}, body...)
		}
		slab = append(slab, datalog.Rule{
			Head:     datalog.Lit{Key: g.preds[c.atoms[0].pid].enc[b2i(c.atoms[0].neg)], Args: r.Head.Atom.Args},
			Body:     body,
			Builtins: r.Builtins,
		})
		dl = append(dl, &slab[len(slab)-1])
		g.dlSrc = append(g.dlSrc, g.encodeSrc(c, body))
	}
	if g.rel != nil {
		// Demand propagation rules evaluate together with the guarded
		// possible-atom rules (one semi-naive fixpoint handles the mutual
		// recursion); the goal's seed tuples go straight into the store so
		// round 0 picks them up. Seeding is unconditional — a seed term
		// outside the universe joins nothing, exactly as the full grounding
		// derives nothing for it.
		dl = append(dl, g.rel.Magic...)
		for _, s := range g.rel.Seeds {
			g.st.Rel(s.Key).Insert(s.Args)
		}
	}
	// Keep the possible-atom closure inside the depth-bounded universe:
	// with function symbols a rule like num(s(X)) :- num(X) would
	// otherwise diverge. Membership is an index by term id.
	for _, id := range g.uniIDs {
		g.inUniverse.add(id)
	}
	// The universe fills $dom only when an encoded body joins it.
	if g.joinsDom() {
		g.dom = g.st.Rel(domKey)
		for i := range g.uniIDs {
			g.dom.InsertIDs(g.uniIDs[i : i+1])
		}
	}
	// Each fact relation is presized for its facts.
	for i, n := range nFacts {
		if n > 0 {
			g.relOf(int32(i/2), i%2 == 1, true).Reserve(n)
		}
	}
	if err := g.check("ground: possible-atom fixpoint"); err != nil {
		return err
	}
	if _, err := datalog.Eval(g.st, dl, seeds, datalog.Options{MaxDerived: g.opts.MaxAtoms, AtomFilter: g.atomFilter, NoPlanner: g.opts.NoJoinPlanner}); err != nil {
		if err == datalog.ErrBudget {
			return &ErrBudget{"possible-atom", g.opts.MaxAtoms}
		}
		return err
	}
	// Every possible atom heads at least one fireable instance, so their
	// count is a lower bound on atoms and instances, and the fireable
	// pass's targets (its distinct heads) number about as many.
	n := 0
	for pid := range g.preds {
		for _, neg := range []bool{false, true} {
			if rel := g.relOf(int32(pid), neg, false); rel != nil {
				n += rel.Len()
			}
		}
	}
	g.tab.Reserve(n)
	g.seen.Reserve(n)
	g.cols.init(g.cols.rt, n)
	// A pool chunk holds the longest run: a target owned by every component.
	g.targets.shift = chunkShift(n)
	g.pool.shift = max(chunkShift(n), uint8(bits.Len(uint(len(g.src.Components)))))
	g.grown = make([]int32, 0, n)
	return nil
}

// joinsDom reports whether some encoded body joins $dom.
func (g *grounder) joinsDom() bool {
	for _, sr := range g.dlSrc {
		for _, l := range sr.body {
			if l.key == domKey {
				return true
			}
		}
	}
	return false
}

// guardOf returns the demand guard a goal-directed grounding prepends to
// r's encoded body, if any.
func (g *grounder) guardOf(r *ast.Rule) (datalog.Lit, bool) {
	if g.rel == nil {
		return datalog.Lit{}, false
	}
	return g.rel.GuardLit(r.Head)
}

// prepCompetitors builds the competitor pass's side tables: predicate
// shapes (with factComps), every compiled rule prepared as a candidate, and
// every rule and fact listed on its head's side per component in source
// order, with the candidates indexed by their EDB-joined body predicates.
func (g *grounder) prepCompetitors() {
	g.predShapes()
	nComp := len(g.src.Components)
	g.cands = make([]candidate, len(g.crules))
	open := make([]bool, 2*len(g.preds)) // target sides already in openSigns
	for _, ref := range g.seq {
		var (
			pid int32
			neg bool
			ci  int
		)
		if ref < 0 {
			f := &g.facts[^ref]
			pid, neg, ci = f.pid, f.neg, int(f.comp)
		} else {
			cr := &g.crules[ref]
			pid, neg, ci = cr.atoms[0].pid, cr.atoms[0].neg, int(cr.comp)
			cand := &g.cands[ref]
			g.prepCandidate(cand, cr)
			for i, l := range cand.edb {
				if !edbBefore(cand.edb[:i], l.pid) {
					g.preds[l.pid].edb = append(g.preds[l.pid].edb, compCandidate{comp: ci, c: cand})
				}
			}
			// Targets this rule competes against carry the complementary sign.
			if ts := 2*int(pid) + b2i(!neg); len(cand.open) > 0 && !open[ts] {
				open[ts] = true
				g.openSigns = append(g.openSigns, predSide{pid: pid, neg: !neg})
			}
		}
		sd := g.side(pid, neg)
		if sd.cands == nil {
			sd.cands = make([][]int32, nComp)
		}
		sd.cands[ci] = append(sd.cands[ci], ref)
	}
	g.seq = nil // the run's source order has no reader after this
}

// edbBefore reports whether an earlier EDB-joined literal already has
// predicate pid.
func edbBefore(lits []edbLit, pid int32) bool {
	for _, l := range lits {
		if l.pid == pid {
			return true
		}
	}
	return false
}

// candidate is a compiled rule prepared for the competitor pass: what a
// head match against a target leaves to do is a static property of the
// rule and the predicate shapes, so it is worked out once instead of per
// target. (A ground fact needs none of it: it matches only the target's
// own atom and binds nothing.)
type candidate struct {
	c *crule
	// edb are the positive body literals of EDB-with-CWA predicates: they
	// bind from the fact relation (non-fact bindings are provably blocked).
	edb []edbLit
	// open are the slots of the variables neither the head match nor the
	// edb joins bind, in r.Vars() order; they range over the universe.
	open []int32
	// negEDB are the negative body literals a visible fact can satisfy, in
	// which case the instance is provably blocked and dropped.
	negEDB []*catom
}

// edbLit is one EDB-joined body literal: its predicate and the literal's
// argument patterns.
type edbLit struct {
	pid  int32
	args []storage.Pat
}

// compCandidate pairs a candidate with its component position.
type compCandidate struct {
	comp int
	c    *candidate
}

func (g *grounder) prepCandidate(c *candidate, cr *crule) {
	c.c = cr
	r := cr.r
	bound := r.Head.Vars(nil)
	for i, l := range r.Body {
		a := &cr.atoms[i+1]
		sh := g.edbShape(a.pid)
		switch {
		case sh == nil:
		case !l.Neg:
			c.edb = append(c.edb, edbLit{pid: a.pid, args: a.args})
			bound = l.Vars(bound)
		case sh.noOtherNeg:
			c.negEDB = append(c.negEDB, a)
		}
	}
	for i, v := range cr.vars {
		if !varIn(bound, v) {
			c.open = append(c.open, int32(i))
		}
	}
}

func varIn(vs []ast.Var, v ast.Var) bool {
	for _, b := range vs {
		if b.Name == v.Name {
			return true
		}
	}
	return false
}

// encodeBody builds the datalog encoding of a source rule body: one
// possible-atom literal per body literal plus a $dom literal for every
// variable no body literal binds. A variable-free rule without body (a
// ground head over builtins alone) encodes to nothing: it is its own only
// instance.
func encodeBody(r *ast.Rule) []datalog.Lit {
	vars := r.Vars()
	if len(r.Body) == 0 && len(vars) == 0 {
		return nil
	}
	var bound []ast.Var
	body := make([]datalog.Lit, 0, len(r.Body)+2)
	for _, l := range r.Body {
		body = append(body, datalog.Lit{Key: encKey(l.Atom.Key(), l.Neg), Args: l.Atom.Args})
		bound = l.Vars(bound)
	}
	for _, v := range vars {
		if !varIn(bound, v) {
			body = append(body, datalog.Lit{Key: domKey, Args: []ast.Term{v}})
		}
	}
	return body
}

// encodeSrc pairs a compiled rule with its encoded body, compiled over
// the rule's slots.
func (g *grounder) encodeSrc(c *crule, body []datalog.Lit) srcRule {
	sr := srcRule{comp: int(c.comp), c: c, body: make([]encLit, len(body))}
	tt := g.tab.TermTable()
	for i, l := range body {
		sr.body[i] = encLit{key: l.Key, args: storage.CompileArgs(tt, l.Args, &c.vars)}
	}
	g.f.Reserve(len(c.vars))
	return sr
}

// atomFilter keeps derived possible atoms inside the current universe.
func (g *grounder) atomFilter(args []term.ID) bool {
	for _, id := range args {
		if !g.inUniverse.has(id) {
			return false
		}
	}
	return true
}

// register folds a new instance's head — of predicate pid, in component
// comp — into the targets. A head that is new, or gains a new owning
// component, joins grown (once per pass): exactly the targets whose full
// competitor instantiation must (re)run. Each is stamped with the current
// pass so the universe-growth revisit can tell it already ran.
func (g *grounder) register(head interp.Lit, comp, pid int32) {
	ti := g.tgtOf.get(head)
	if ti < 0 {
		ti = g.newTarget(head, pid)
		g.tgtOf.set(head, ti)
		sd := g.side(pid, head.Neg())
		sd.tgts = append(sd.tgts, ti)
	}
	t := g.tgt(ti)
	if !slices.Contains(g.compsOf(t), comp) {
		g.addComp(t, comp)
		if t.grownAt != g.pass {
			t.grownAt = g.pass
			g.grown = append(g.grown, ti)
		}
	}
}

// newTarget appends a target for head, owned by no component yet, and
// returns its number.
func (g *grounder) newTarget(head interp.Lit, pid int32) int32 {
	ti := g.nTargets
	g.nTargets++
	g.targets.put(ti, target{atom: head.Atom(), pid: pid, comps: int32(g.nPool), neg: head.Neg()})
	return int32(ti)
}

// addComp appends comp to t's owning components. A target's run grows in
// place only while it ends the pool and stays in one chunk; otherwise it
// moves to the end first, so no two targets ever share a run (the run it
// leaves stays unused).
func (g *grounder) addComp(t *target, comp int32) {
	start, n := int(t.comps), int(t.nComps)
	if start+n != g.nPool || g.pool.reserve(start, n+1) != start {
		start = g.pool.reserve(g.nPool, n+1)
		copy(g.pool.run(start, n), g.compsOf(t))
		t.comps = int32(start)
	}
	g.pool.put(start+n, comp)
	t.nComps++
	g.nPool = start + n + 1
}

// competitorsOf runs the full competitor instantiation for each target,
// polling the context per target.
func (g *grounder) competitorsOf(tgs []int32) error {
	for _, ti := range tgs {
		if err := g.check("ground: competitor pass"); err != nil {
			return err
		}
		if err := g.competitorsFor(g.tgt(ti), 0); err != nil {
			return err
		}
	}
	return nil
}

// canCompete reports whether a rule in component ci can overrule or defeat
// an owner of the target: some owning component is not strictly below ci.
func (g *grounder) canCompete(tg *target, ci int) bool {
	for _, cs := range g.compsOf(tg) {
		if !g.src.Less(int(cs), ci) {
			return true
		}
	}
	return false
}

// competitorsFor instantiates the potential competitors of one target: for
// every component that can overrule or defeat an owner of the target head,
// the rules and facts with the complementary head, in source order and then
// the facts asserted since grounding — all listed on the complementary
// side. Idempotent: the instance dedup absorbs re-runs, which is what lets
// incremental updates re-run it for targets that grew.
//
// newFrom > 0 is the universe-growth revisit of a target whose competitors
// were already instantiated over uni[:newFrom]: only rules with open
// variables are matched, and only bindings holding a constant of
// uni[newFrom:] are enumerated. newFrom == 0 is the full pass.
func (g *grounder) competitorsFor(tg *target, newFrom int) error {
	g.compTargets++
	var tgArgs []term.ID // resolved on the first head match
	resolved := false
	for ci, refs := range g.side(tg.pid, !tg.neg).cands {
		if len(refs) == 0 || !g.canCompete(tg, ci) {
			continue
		}
		if !resolved {
			tgArgs, resolved = g.tab.Key(tg.atom)[1:], true
		}
		for _, ref := range refs {
			if ref < 0 {
				// A ground fact in effect; it has nothing open to revisit.
				if newFrom == 0 && !g.facts[^ref].gone {
					if err := g.matchFact(^ref, tgArgs); err != nil {
						return err
					}
				}
				continue
			}
			c := &g.cands[ref]
			if newFrom > 0 && len(c.open) == 0 {
				continue
			}
			if err := g.matchCandidate(tgArgs, ci, c, newFrom); err != nil {
				return err
			}
		}
	}
	return nil
}

// matchFact instantiates a ground fact when it is the target's own atom
// (tgArgs: its argument ids; the fact shares its predicate).
func (g *grounder) matchFact(fi int32, tgArgs []term.ID) error {
	g.compCandidates++
	if !slices.Equal(g.argsOf(&g.facts[fi]), tgArgs) {
		return nil
	}
	return g.instantiateFacts([]int32{fi}, false)
}

// matchCandidate head-matches one candidate of component ci against the
// target (tgArgs: its argument ids) and instantiates its bodies on success.
func (g *grounder) matchCandidate(tgArgs []term.ID, ci int, c *candidate, newFrom int) error {
	g.compCandidates++
	mark := g.f.Mark()
	var err error
	if g.f.Match(g.tab.TermTable(), c.c.atoms[0].args, tgArgs) {
		err = g.emitCompetitors(ci, c, deltaNone, newFrom)
	}
	g.f.Undo(mark)
	return err
}

// predShape records what the grounder knows about all rules defining one
// predicate, across every component. When a predicate is pure EDB under a
// globally-top closed-world component, competitor instances whose body
// needs a non-fact atom of it are provably blocked in every model — the
// blocking CWA literal is in the least model, which by Theorem 1(b) is
// contained in every model — and can be dropped.
type predShape struct {
	onlyFactPos bool // every positive-head rule is a ground fact
	topCWA      bool // a universal negative fact in a globally-top component
	cwaComp     int
	noOtherNeg  bool // no negative-head rules besides that CWA fact
}

// isUniversalNegFact reports whether r is ¬k(X1,...,Xn) with distinct
// variable arguments and an empty body.
func isUniversalNegFact(r *ast.Rule) bool {
	if !r.Head.Neg || !r.IsFact() {
		return false
	}
	seen := make(map[string]bool)
	for _, t := range r.Head.Atom.Args {
		v, ok := t.(ast.Var)
		if !ok || seen[v.Name] {
			return false
		}
		seen[v.Name] = true
	}
	return true
}

// topComponent returns the position of the component strictly above every
// other one, or -1.
func (g *grounder) topComponent() int {
	n := len(g.src.Components)
	if n == 1 {
		return -1
	}
	for cf := 0; cf < n; cf++ {
		ok := true
		for ci := 0; ci < n; ci++ {
			if ci != cf && !g.src.Less(ci, cf) {
				ok = false
				break
			}
		}
		if ok {
			return cf
		}
	}
	return -1
}

// predShapes fills every source predicate's shape and factComps.
func (g *grounder) predShapes() {
	top := g.topComponent()
	for _, ref := range g.seq {
		var (
			r   *ast.Rule
			pid int32
			ci  int
		)
		if ref < 0 {
			f := &g.facts[^ref]
			r, pid, ci = g.cols.rt.rule(f.comp, f.src), f.pid, int(f.comp)
		} else {
			c := &g.crules[ref]
			r, pid, ci = c.r, c.atoms[0].pid, int(c.comp)
		}
		s := &g.preds[pid].shape
		if r.Head.Neg {
			if ci == top && isUniversalNegFact(r) {
				s.topCWA = true
				s.cwaComp = ci
			} else {
				s.noOtherNeg = false
			}
		} else if ref >= 0 {
			s.onlyFactPos = false
		}
	}
	// factComps is consulted only for EDB-with-CWA predicates
	// (blockedByVisibleFact), so only their facts are recorded — on a program
	// without a closed-world component that is none of them.
	g.factComps = make(map[string][]int)
	for i := range g.facts {
		f := &g.facts[i]
		if s := &g.preds[f.pid].shape; !f.neg && s.onlyFactPos && s.topCWA {
			fk := string(appendFactKey(nil, f.sym, g.argsOf(f)))
			g.factComps[fk] = append(g.factComps[fk], int(f.comp))
		}
	}
}

// edbShape returns the predicate's shape when the EDB/CWA competitor
// simplification applies to it, nil otherwise.
func (g *grounder) edbShape(pid int32) *predShape {
	if g.opts.NoEDBSimplify {
		return nil
	}
	sh := &g.preds[pid].shape
	if sh.onlyFactPos && sh.topCWA {
		return sh
	}
	return nil
}

// deltaRestrict restricts one emitCompetitors join to the delta of a fact
// relation: only substitutions binding at least one tuple of predicate pid
// at index >= lo are enumerated. deltaNone means no restriction (full
// join).
type deltaRestrict struct {
	pid int32
	lo  int
	pos int // which occurrence of pid in the join (0-based) scans the delta
}

var deltaNone = deltaRestrict{pos: -1}

// emitCompetitors instantiates the bodies of a head-matched candidate.
// Its EDB literals join against the facts (non-fact bindings are provably
// blocked); its open variables range over the universe; instances
// satisfying a negative literal on a fact of an EDB-with-CWA predicate in a
// visible-from-everywhere component are dropped (provably blocked as
// well). newFrom is competitorsFor's: 0 enumerates every binding of the
// open variables, a positive value only those holding a constant of
// uni[newFrom:].
func (g *grounder) emitCompetitors(comp int, c *candidate, delta deltaRestrict, newFrom int) error {
	if len(c.edb) == 0 {
		if delta.pos >= 0 {
			return nil // requested delta occurrence does not exist
		}
		return g.enumerateOpen(comp, c, 0, newFrom)
	}
	// Join items: positive EDB literals bind from the fact relation, joined
	// in planner order.
	joinLits := g.jls[:0]
	first := -1
	nth := 0
	for i, l := range c.edb {
		joinLits = append(joinLits, storage.JoinLit{Rel: g.relOf(l.pid, false, false), Args: l.args})
		if delta.pos >= 0 && l.pid == delta.pid {
			if nth == delta.pos {
				joinLits[i].Lo = delta.lo
				first = i
			}
			nth++
		}
	}
	g.jls = joinLits
	if delta.pos >= 0 && first < 0 {
		return nil // requested delta occurrence does not exist
	}
	return storage.Join(g.f, joinLits, first, !g.opts.NoJoinPlanner, func() error {
		return g.enumerateOpen(comp, c, 0, newFrom)
	})
}

// enumerateOpen binds c.open[i:] over the universe and emits the instances,
// dropping those provably blocked in every model through a satisfied
// negative literal on an everywhere-visible EDB fact. While newFrom > 0 no
// constant of uni[newFrom:] has been bound yet and the binding must still
// take one, so the last open variable ranges over uni[newFrom:] only;
// binding one clears the obligation for the positions after it. Every
// binding with a new constant is therefore enumerated exactly once: the
// first position holding one ranges over the new constants, earlier
// positions over the old universe, later ones over all of it.
func (g *grounder) enumerateOpen(comp int, c *candidate, i, newFrom int) error {
	if i == len(c.open) {
		if newFrom > 0 {
			return nil // no open variable: growth has nothing to add
		}
		tt := g.tab.TermTable()
		for _, a := range c.negEDB {
			args, ok := g.f.Lookup(tt, a.args, g.argBuf[:0])
			g.argBuf = args
			if ok && g.blockedByVisibleFact(a.sym, args, comp, &g.preds[a.pid].shape) {
				return nil
			}
		}
		return g.instantiate(comp, c.c)
	}
	from := 0
	if i == len(c.open)-1 {
		from = newFrom
	}
	for k := from; k < len(g.uniIDs); k++ {
		next := newFrom
		if k >= newFrom {
			next = 0
		}
		mark := g.f.Mark()
		g.f.Bind(c.open[i], g.uniIDs[k])
		err := g.enumerateOpen(comp, c, i+1, next)
		g.f.Undo(mark)
		if err != nil {
			return err
		}
	}
	return nil
}

// blockedByVisibleFact reports whether the atom sym(args...) is a ground
// fact of its EDB-with-CWA predicate in a component cb with comp <= cb <
// cwa — in which case the fact is visible and undefeated in every view that
// sees the competitor instance, so a negative literal on it blocks the
// instance in every model. The key is built over a stack buffer: it runs
// once per enumerated competitor binding, and nothing is interned or
// allocated on the way.
func (g *grounder) blockedByVisibleFact(sym term.ID, args []term.ID, comp int, sh *predShape) bool {
	var kb [64]byte
	for _, cb := range g.factComps[string(appendFactKey(kb[:0], sym, args))] {
		if cb == sh.cwaComp {
			continue
		}
		if cb != comp && !g.src.Less(comp, cb) {
			continue
		}
		if g.src.Less(cb, sh.cwaComp) {
			return true
		}
	}
	return false
}

// joinInstantiate enumerates the frames satisfying the encoded body over
// the possible-atom store and instantiates the rule for each. The join
// order is chosen by the shared selectivity planner.
func (g *grounder) joinInstantiate(sr *srcRule) error {
	return storage.Join(g.f, g.joinLits(sr), -1, !g.opts.NoJoinPlanner, func() error {
		return g.instantiate(sr.comp, sr.c)
	})
}

// joinLits lists sr's encoded body as join literals over the store, in the
// grounder's join scratch.
func (g *grounder) joinLits(sr *srcRule) []storage.JoinLit {
	lits := g.jls[:0]
	for _, l := range sr.body {
		lits = append(lits, storage.JoinLit{Rel: g.st.Peek(l.key), Args: l.args})
	}
	g.jls = lits
	return lits
}

// recordMarks snapshots every relation's size: the next delta pass treats
// tuples inserted after this point as its delta.
func (g *grounder) recordMarks() {
	if g.marks == nil {
		g.marks = make(map[ast.PredKey]int)
	}
	for _, k := range g.st.Keys() {
		g.marks[k] = g.st.Peek(k).Len()
	}
}
