package ground

import (
	"repro/internal/ast"
	"repro/internal/datalog"
	"repro/internal/interp"
	"repro/internal/storage"
	"repro/internal/term"
	"repro/internal/unify"
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
func (g *grounder) smart() error {
	if err := g.smartPrep(); err != nil {
		return err
	}

	// Fireable pass.
	for _, sr := range g.dlSrc {
		if err := g.check("ground: fireable pass"); err != nil {
			return err
		}
		var err error
		if len(sr.body) == 0 {
			// No variables and nothing to join (a ground fact, or a ground
			// head over builtins alone): the rule is its own only instance.
			err = g.instantiate(sr.comp, sr.r, nil)
		} else {
			err = g.joinInstantiate(sr)
		}
		if err != nil {
			return err
		}
	}

	// Competitor pass. Snapshot the retained heads and the components that
	// own instances of each head literal, then instantiate the potential
	// competitors of every target.
	g.prepCompetitors()
	preComp := len(g.rules)
	if err := g.competitorsOf(g.registerTargets(0)); err != nil {
		return err
	}
	g.compInstances += len(g.rules) - preComp
	g.recordMarks()
	return nil
}

// smartPrep is smart grounding's prologue: store and incremental-state
// setup, the $dom fill, rule encoding and the possible-atom Datalog
// fixpoint.
func (g *grounder) smartPrep() error {
	// The store shares the atom table's term table, so a term interned while
	// filling relations is the same id the instantiation pass sees.
	g.st = storage.NewStoreWith(g.tab.TermTable())
	g.sub = unify.NewSubst()
	g.extra = make(map[int][]*ast.Rule)
	g.hasFunctors = len(g.src.Functors()) > 0
	domRel := g.st.Rel(domKey)
	for _, t := range g.uni {
		domRel.Insert([]ast.Term{t})
	}
	// After the $dom fill, so counting finds every constant interned already
	// and term ids keep following universe order.
	g.constRefs = make(map[term.ID]int, len(g.uni))
	for _, c := range g.src.Components {
		for _, r := range c.Rules {
			g.addConstRefs(r, 1)
		}
	}

	// One datalog rule per source rule, cut from one slab; enc caches each
	// head's possible-atom relation key (facts repeat a handful of them).
	enc := make(map[predSign]ast.PredKey)
	slab := make([]datalog.Rule, g.src.NumRules())
	dl := make([]*datalog.Rule, 0, len(slab))
	for ci, c := range g.src.Components {
		for _, r := range c.Rules {
			// Goal-directed slicing: rules whose head predicate the goal
			// never demands are dropped outright, and rules defining a
			// magic-restricted predicate get the demand guard prepended to
			// their encoded body — both the possible-atom fixpoint and the
			// fireable join then only explore magic-reachable bindings. The
			// competitor pass is untouched: it enumerates over the full
			// universe per target, and its possible-atom joins only read
			// EDB-exempt (never restricted) relations.
			if g.rel != nil && !g.rel.RuleDemanded(r) {
				g.skippedRules++
				continue
			}
			sr := encodeRule(ci, r)
			if g.rel != nil {
				if guard, ok := g.rel.GuardLit(r.Head); ok {
					sr.body = append([]datalog.Lit{guard}, sr.body...)
				}
			}
			ps := predSign{key: r.Head.Atom.Key(), neg: r.Head.Neg}
			headKey, ok := enc[ps]
			if !ok {
				headKey = encKey(ps.key, ps.neg)
				enc[ps] = headKey
			}
			dr := &slab[len(dl)]
			*dr = datalog.Rule{
				Head:     datalog.Lit{Key: headKey, Args: r.Head.Atom.Args},
				Body:     sr.body,
				Builtins: r.Builtins,
			}
			dl = append(dl, dr)
			g.dlSrc = append(g.dlSrc, sr)
		}
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
	// otherwise diverge. Universe members were interned when filling $dom,
	// so a term the table has never seen is provably outside the universe
	// and membership is an id probe.
	tt := g.tab.TermTable()
	g.inUniverse = make(map[term.ID]bool, len(g.uni))
	for _, t := range g.uni {
		g.inUniverse[tt.Intern(t)] = true
	}
	if err := g.check("ground: possible-atom fixpoint"); err != nil {
		return err
	}
	if _, err := datalog.Eval(g.st, dl, datalog.Options{MaxDerived: g.opts.MaxAtoms, AtomFilter: g.atomFilter, NoPlanner: g.opts.NoJoinPlanner}); err != nil {
		if err == datalog.ErrBudget {
			return &ErrBudget{"possible-atom", g.opts.MaxAtoms}
		}
		return err
	}
	return nil
}

// prepCompetitors builds the competitor pass's side tables: predicate
// shapes (with factComps), every source rule prepared as a candidate and
// indexed by its head (per component, source order kept) and by its
// EDB-joined body predicates, and the empty target maps registerTargets
// fills.
func (g *grounder) prepCompetitors() {
	g.shapes = g.predShapes()
	g.heads = make([]map[predSign][]*candidate, len(g.src.Components))
	g.bodyEDB = make(map[ast.PredKey][]compCandidate)
	slab := make([]candidate, 0, g.src.NumRules())
	openSeen := make(map[predSign]bool)
	for ci, c := range g.src.Components {
		g.heads[ci] = make(map[predSign][]*candidate)
		for _, r := range c.Rules {
			slab = append(slab, g.prepCandidate(r))
			cand := &slab[len(slab)-1]
			ps := predSign{key: r.Head.Atom.Key(), neg: r.Head.Neg}
			g.heads[ci][ps] = append(g.heads[ci][ps], cand)
			for i, l := range cand.edb {
				if !edbKeyBefore(cand.edb[:i], l.key) {
					g.bodyEDB[l.key] = append(g.bodyEDB[l.key], compCandidate{comp: ci, c: cand})
				}
			}
			if len(cand.open) > 0 {
				// Targets this rule competes against carry the complementary sign.
				ts := predSign{key: ps.key, neg: !ps.neg}
				if !openSeen[ts] {
					openSeen[ts] = true
					g.openSigns = append(g.openSigns, ts)
				}
			}
		}
	}
	g.targets = make(map[interp.Lit]*target)
	g.targetsByPred = make(map[predSign][]*target)
}

// edbKeyBefore reports whether an earlier EDB-joined literal already has
// predicate k.
func edbKeyBefore(lits []edbLit, k ast.PredKey) bool {
	for _, l := range lits {
		if l.key == k {
			return true
		}
	}
	return false
}

// candidate is a source rule prepared for the competitor pass: what a head
// match against a target leaves to do is a static property of the rule and
// the predicate shapes, so it is worked out once instead of per target.
type candidate struct {
	r *ast.Rule
	// edb are the positive body literals of EDB-with-CWA predicates: they
	// bind from the fact relation (non-fact bindings are provably blocked).
	edb []edbLit
	// open are the variables neither the head match nor the edb joins bind,
	// in r.Vars() order; they range over the universe.
	open []ast.Var
	// negEDB are the negative body literals a visible fact can satisfy, in
	// which case the instance is provably blocked and dropped.
	negEDB []negLit
}

// edbLit is one EDB-joined body literal: its source predicate, that
// predicate's possibly-true relation and the literal's arguments.
type edbLit struct {
	key, rel ast.PredKey
	args     []ast.Term
}

// negLit is a negative body literal on an EDB-with-CWA predicate that has
// no negative rules besides the CWA fact.
type negLit struct {
	atom ast.Atom
	sh   *predShape
}

// compCandidate pairs a candidate with its component position.
type compCandidate struct {
	comp int
	c    *candidate
}

func (g *grounder) prepCandidate(r *ast.Rule) candidate {
	c := candidate{r: r}
	bound := r.Head.Vars(nil)
	for _, l := range r.Body {
		k := l.Atom.Key()
		sh := g.edbShape(k)
		switch {
		case sh == nil:
		case !l.Neg:
			c.edb = append(c.edb, edbLit{key: k, rel: encKey(k, false), args: l.Atom.Args})
			bound = l.Vars(bound)
		case sh.noOtherNeg:
			c.negEDB = append(c.negEDB, negLit{atom: l.Atom, sh: sh})
		}
	}
	for _, v := range r.Vars() {
		if !varIn(bound, v) {
			c.open = append(c.open, v)
		}
	}
	return c
}

func varIn(vs []ast.Var, v ast.Var) bool {
	for _, b := range vs {
		if b.Name == v.Name {
			return true
		}
	}
	return false
}

// encodeRule builds the datalog encoding of a source rule body: one
// possible-atom literal per body literal plus a $dom literal for every
// variable no body literal binds.
func encodeRule(ci int, r *ast.Rule) srcRule {
	vars := r.Vars()
	if len(r.Body) == 0 && len(vars) == 0 {
		return srcRule{comp: ci, r: r}
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
	return srcRule{comp: ci, r: r, body: body}
}

// atomFilter keeps derived possible atoms inside the current universe.
func (g *grounder) atomFilter(a ast.Atom) bool {
	tt := g.tab.TermTable()
	for _, t := range a.Args {
		id, ok := tt.Lookup(t)
		if !ok || !g.inUniverse[id] {
			return false
		}
	}
	return true
}

// registerTargets folds the instances at index >= from into the target
// index and returns, in registration order, the targets that are new or
// gained a new owning component — exactly the ones whose full competitor
// instantiation must (re)run. Each is stamped with the current pass so the
// universe-growth revisit can tell it already ran.
func (g *grounder) registerTargets(from int) []*target {
	g.pass++
	var grown []*target
	for i := from; i < len(g.rules); i++ {
		r := &g.rules[i]
		t, ok := g.targets[r.Head]
		if !ok {
			t = g.newTarget(r.Head)
			g.targets[r.Head] = t
			ps := predSign{key: t.atom.Key(), neg: t.neg}
			g.targetsByPred[ps] = append(g.targetsByPred[ps], t)
		}
		if !t.ownedBy(r.Comp) {
			t.comps = append(t.comps, r.Comp)
			if t.grownAt != g.pass {
				t.grownAt = g.pass
				grown = append(grown, t)
			}
		}
	}
	return grown
}

// newTarget takes the next target of the slab (targets live as long as the
// grounder, so they are allocated a chunk at a time). Its comps start in the
// target's own two-slot array; only a head owned by more components than
// that spills to the heap.
func (g *grounder) newTarget(head interp.Lit) *target {
	if len(g.targetSlab) == 0 {
		g.targetSlab = make([]target, min(max(2*g.slabChunk, 16), 1024))
		g.slabChunk = len(g.targetSlab)
	}
	t := &g.targetSlab[0]
	g.targetSlab = g.targetSlab[1:]
	t.atom, t.neg = g.tab.Atom(head.Atom()), head.Neg()
	t.comps = t.own[:0]
	return t
}

// competitorsOf runs the full competitor instantiation for each target,
// polling the context per target.
func (g *grounder) competitorsOf(tgs []*target) error {
	for _, tg := range tgs {
		if err := g.check("ground: competitor pass"); err != nil {
			return err
		}
		if err := g.competitorsFor(tg, 0); err != nil {
			return err
		}
	}
	return nil
}

// canCompete reports whether a rule in component ci can overrule or defeat
// an owner of the target: some owning component is not strictly below ci.
func (g *grounder) canCompete(tg *target, ci int) bool {
	for _, cs := range tg.comps {
		if !g.src.Less(int(cs), ci) {
			return true
		}
	}
	return false
}

// competitorsFor instantiates the potential competitors of one target: for
// every component that can overrule or defeat an owner of the target head,
// the rules with the complementary head — found through the head index, in
// source order, then the facts asserted since grounding. Idempotent: the
// instance dedup absorbs re-runs, which is what lets incremental updates
// re-run it for targets that grew.
//
// newFrom > 0 is the universe-growth revisit of a target whose competitors
// were already instantiated over uni[:newFrom]: only rules with open
// variables are matched, and only bindings holding a constant of
// uni[newFrom:] are enumerated. newFrom == 0 is the full pass.
func (g *grounder) competitorsFor(tg *target, newFrom int) error {
	g.compTargets++
	ps := predSign{key: tg.atom.Key(), neg: !tg.neg} // competitor head
	for ci := range g.src.Components {
		cands := g.heads[ci][ps]
		var extra []*ast.Rule
		if newFrom == 0 {
			extra = g.extra[ci] // ground facts: nothing open to revisit
		}
		if len(cands)+len(extra) == 0 || !g.canCompete(tg, ci) {
			continue
		}
		for _, c := range cands {
			if newFrom > 0 && len(c.open) == 0 {
				continue
			}
			if err := g.matchCandidate(tg, ci, c, newFrom); err != nil {
				return err
			}
		}
		for _, r := range extra {
			if r.Head.Neg != ps.neg || r.Head.Atom.Key() != ps.key {
				continue
			}
			fact := candidate{r: r}
			if err := g.matchCandidate(tg, ci, &fact, newFrom); err != nil {
				return err
			}
		}
	}
	return nil
}

// matchCandidate head-matches one candidate of component ci against the
// target and instantiates its bodies on success.
func (g *grounder) matchCandidate(tg *target, ci int, c *candidate, newFrom int) error {
	g.compCandidates++
	mark := g.sub.Mark()
	var err error
	if unify.MatchAtoms(g.sub, c.r.Head.Atom, tg.atom) {
		err = g.emitCompetitors(ci, c, g.sub, deltaNone, newFrom)
	}
	g.sub.Undo(mark)
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

func (g *grounder) predShapes() map[ast.PredKey]*predShape {
	shapes := make(map[ast.PredKey]*predShape)
	get := func(k ast.PredKey) *predShape {
		s, ok := shapes[k]
		if !ok {
			s = &predShape{onlyFactPos: true, noOtherNeg: true, cwaComp: -1}
			shapes[k] = s
		}
		return s
	}
	top := g.topComponent()
	for ci, c := range g.src.Components {
		for _, r := range c.Rules {
			s := get(r.Head.Atom.Key())
			if r.Head.Neg {
				if ci == top && isUniversalNegFact(r) {
					s.topCWA = true
					s.cwaComp = ci
				} else {
					s.noOtherNeg = false
				}
			} else if !r.IsFact() || !r.Head.Atom.Ground() {
				s.onlyFactPos = false
			}
		}
	}
	// factComps is consulted only for EDB-with-CWA predicates
	// (blockedByVisibleFact), so only their facts are recorded — on a program
	// without a closed-world component that is none of them.
	g.factComps = make(map[string][]int)
	for ci, c := range g.src.Components {
		for _, r := range c.Rules {
			if r.Head.Neg {
				continue
			}
			if s := shapes[r.Head.Atom.Key()]; s.onlyFactPos && s.topCWA {
				fk := g.factKey(r.Head.Atom)
				g.factComps[fk] = append(g.factComps[fk], ci)
			}
		}
	}
	return shapes
}

// edbShape returns the predicate's shape when the EDB/CWA competitor
// simplification applies to it, nil otherwise.
func (g *grounder) edbShape(k ast.PredKey) *predShape {
	if g.opts.NoEDBSimplify {
		return nil
	}
	sh := g.shapes[k]
	if sh != nil && sh.onlyFactPos && sh.topCWA {
		return sh
	}
	return nil
}

// deltaRestrict restricts one emitCompetitors join to the delta of a fact
// relation: only substitutions binding at least one tuple of key at index
// >= lo are enumerated. deltaNone means no restriction (full join).
type deltaRestrict struct {
	key ast.PredKey
	lo  int
	pos int // which occurrence of key in the join (0-based) scans the delta
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
func (g *grounder) emitCompetitors(comp int, c *candidate, s *unify.Subst, delta deltaRestrict, newFrom int) error {
	if len(c.edb) == 0 {
		if delta.pos >= 0 {
			return nil // requested delta occurrence does not exist
		}
		return g.enumerateOpen(comp, c, s, 0, newFrom)
	}
	// Join items: positive EDB literals bind from the fact relation, joined
	// in planner order.
	joinLits := make([]storage.JoinLit, len(c.edb))
	first := -1
	nth := 0
	for i, l := range c.edb {
		joinLits[i] = storage.JoinLit{Rel: g.st.Peek(l.rel), Args: l.args}
		if delta.pos >= 0 && l.key == delta.key {
			if nth == delta.pos {
				joinLits[i].Lo = delta.lo
				first = i
			}
			nth++
		}
	}
	if delta.pos >= 0 && first < 0 {
		return nil // requested delta occurrence does not exist
	}
	return storage.Join(s, joinLits, first, !g.opts.NoJoinPlanner, func() error {
		return g.enumerateOpen(comp, c, s, 0, newFrom)
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
func (g *grounder) enumerateOpen(comp int, c *candidate, s *unify.Subst, i, newFrom int) error {
	if i == len(c.open) {
		if newFrom > 0 {
			return nil // no open variable: growth has nothing to add
		}
		for _, l := range c.negEDB {
			atom := s.ApplyAtom(l.atom)
			if atom.Ground() && g.blockedByVisibleFact(atom, comp, l.sh) {
				return nil
			}
		}
		return g.instantiate(comp, c.r, s)
	}
	from := 0
	if i == len(c.open)-1 {
		from = newFrom
	}
	for k := from; k < len(g.uni); k++ {
		next := newFrom
		if k >= newFrom {
			next = 0
		}
		mark := s.Mark()
		s.Bind(c.open[i], g.uni[k])
		err := g.enumerateOpen(comp, c, s, i+1, next)
		s.Undo(mark)
		if err != nil {
			return err
		}
	}
	return nil
}

// blockedByVisibleFact reports whether atom is a ground fact of its
// EDB-with-CWA predicate in a component cb with comp <= cb < cwa — in
// which case the fact is visible and undefeated in every view that sees
// the competitor instance, so a negative literal on it blocks the instance
// in every model. Lookup-only with a stack key buffer: it runs once per
// enumerated competitor binding, so a term the table has never seen just
// proves the atom equals no fact head, and nothing is interned or
// allocated on the way.
func (g *grounder) blockedByVisibleFact(atom ast.Atom, comp int, sh *predShape) bool {
	tt := g.tab.TermTable()
	var kb [64]byte
	buf := kb[:0]
	id, ok := tt.LookupSym(atom.Pred)
	if !ok {
		return false // predicate symbol never interned: atom equals no fact head
	}
	buf = term.AppendID(buf, id)
	for _, t := range atom.Args {
		tid, ok := tt.Lookup(t)
		if !ok {
			return false // some subterm was never interned: atom equals no fact head
		}
		buf = term.AppendID(buf, tid)
	}
	fk := string(buf)
	for _, cb := range g.factComps[fk] {
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

// joinInstantiate enumerates the substitutions satisfying the encoded body
// over the possible-atom store and instantiates the rule for each. The
// join order is chosen by the shared selectivity planner.
func (g *grounder) joinInstantiate(sr srcRule) error {
	lits := make([]storage.JoinLit, len(sr.body))
	for i, l := range sr.body {
		lits[i] = storage.JoinLit{Rel: g.st.Peek(l.Key), Args: l.Args}
	}
	return storage.Join(g.sub, lits, -1, !g.opts.NoJoinPlanner, func() error {
		return g.instantiate(sr.comp, sr.r, g.sub)
	})
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
