package ground

import (
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
func (g *grounder) smart() error {
	if err := g.smartPrep(); err != nil {
		return err
	}

	// Fireable pass.
	for i := range g.dlSrc {
		if err := g.check("ground: fireable pass"); err != nil {
			return err
		}
		if err := g.joinInstantiate(&g.dlSrc[i]); err != nil {
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
	g.extra = make(map[int][]*ast.Rule)
	g.hasFunctors = len(g.src.Functors()) > 0
	domRel := g.st.Rel(domKey)
	for i := range g.uniIDs {
		domRel.InsertIDs(g.uniIDs[i : i+1])
	}
	// After the $dom fill, so counting finds every constant interned already
	// and term ids keep following universe order.
	g.constRefs = make([]int, 0, 2*len(g.uni)) // room for the ids updates add
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
	g.dlSrc = make([]srcRule, 0, len(slab))
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
			body := encodeBody(r)
			if g.rel != nil {
				if guard, ok := g.rel.GuardLit(r.Head); ok {
					body = append([]datalog.Lit{guard}, body...)
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
				Body:     body,
				Builtins: r.Builtins,
			}
			dl = append(dl, dr)
			g.dlSrc = append(g.dlSrc, g.compileSrc(ci, r, body))
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
	// otherwise diverge. Membership is an index by term id.
	for _, id := range g.uniIDs {
		g.inUniverse.add(id)
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
	// Every retained head is a possible atom, so the possible-atom
	// relations size the atom table and the instance dedup set.
	n := g.st.Size() - domRel.Len()
	g.tab.Reserve(n)
	g.seen = make(map[uint64]int32, n)
	return nil
}

// prepCompetitors builds the competitor pass's side tables: predicate
// shapes (with factComps), every source rule prepared as a candidate and
// indexed by its head (per component, source order kept) and by its
// EDB-joined body predicates, and the empty target maps registerTargets
// fills.
func (g *grounder) prepCompetitors() {
	g.shapes = g.predShapes()
	g.heads = make(map[predSign][][]*candidate)
	g.bodyEDB = make(map[ast.PredKey][]compCandidate)
	slab := make([]candidate, 0, g.src.NumRules())
	openSeen := make(map[predSign]bool)
	for ci, c := range g.src.Components {
		for _, r := range c.Rules {
			slab = append(slab, g.prepCandidate(r))
			cand := &slab[len(slab)-1]
			ps := predSign{key: r.Head.Atom.Key(), neg: r.Head.Neg}
			byComp := g.heads[ps]
			if byComp == nil {
				byComp = make([][]*candidate, len(g.src.Components))
				g.heads[ps] = byComp
			}
			byComp[ci] = append(byComp[ci], cand)
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
	// c is the rule compiled (nil for a ground fact, compiled on use); the
	// slots below are its frame slots.
	c *crule
	// edb are the positive body literals of EDB-with-CWA predicates: they
	// bind from the fact relation (non-fact bindings are provably blocked).
	edb []edbLit
	// open are the slots of the variables neither the head match nor the
	// edb joins bind, in r.Vars() order; they range over the universe.
	open []int32
	// negEDB are the negative body literals a visible fact can satisfy, in
	// which case the instance is provably blocked and dropped.
	negEDB []negLit
}

// edbLit is one EDB-joined body literal: its source predicate, that
// predicate's possibly-true relation and the literal's argument patterns.
type edbLit struct {
	key, rel ast.PredKey
	args     []storage.Pat
}

// negLit is a negative body literal on an EDB-with-CWA predicate that has
// no negative rules besides the CWA fact.
type negLit struct {
	atom *catom
	sh   *predShape
}

// compCandidate pairs a candidate with its component position.
type compCandidate struct {
	comp int
	c    *candidate
}

func (g *grounder) prepCandidate(r *ast.Rule) candidate {
	c := candidate{r: r}
	if len(r.Body) == 0 && len(r.Builtins) == 0 && r.Head.Atom.Ground() {
		return c // a ground fact: the head match is all there is
	}
	c.c = g.compile(r)
	bound := r.Head.Vars(nil)
	for i, l := range r.Body {
		k := l.Atom.Key()
		sh := g.edbShape(k)
		switch {
		case sh == nil:
		case !l.Neg:
			c.edb = append(c.edb, edbLit{key: k, rel: encKey(k, false), args: c.c.atoms[i+1].args})
			bound = l.Vars(bound)
		case sh.noOtherNeg:
			c.negEDB = append(c.negEDB, negLit{atom: &c.c.atoms[i+1], sh: sh})
		}
	}
	for i, v := range c.c.vars {
		if !varIn(bound, v) {
			c.open = append(c.open, int32(i))
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

// encodeBody builds the datalog encoding of a source rule body: one
// possible-atom literal per body literal plus a $dom literal for every
// variable no body literal binds. A variable-free rule without body (a
// ground fact, or a ground head over builtins alone) encodes to nothing: it
// is its own only instance.
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

// compileSrc compiles a source rule and its encoded body over one set of
// slots. A ground fact keeps neither (see srcRule).
func (g *grounder) compileSrc(ci int, r *ast.Rule, body []datalog.Lit) srcRule {
	sr := srcRule{comp: ci, r: r}
	if len(body) == 0 && len(r.Builtins) == 0 {
		return sr
	}
	sr.c = g.compile(r)
	tt := g.tab.TermTable()
	sr.body = make([]encLit, len(body))
	for i, l := range body {
		sr.body[i] = encLit{key: l.Key, args: storage.CompileArgs(tt, l.Args, &sr.c.vars)}
	}
	g.f.Reserve(len(sr.c.vars))
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

// registerTargets folds the instances at index >= from into the target
// index and returns, in registration order, the targets that are new or
// gained a new owning component — exactly the ones whose full competitor
// instantiation must (re)run. Each is stamped with the current pass so the
// universe-growth revisit can tell it already ran.
func (g *grounder) registerTargets(from int) []*target {
	g.pass++
	var grown []*target
	// New targets come in runs of one head predicate and sign: each run
	// reads and writes its targetsByPred list once.
	var (
		runPS  predSign
		runs   bool
		runTgs []*target
	)
	for i := from; i < len(g.rules); i++ {
		r := &g.rules[i]
		t, ok := g.targets[r.Head]
		if !ok {
			t = g.newTarget(r.Head)
			g.targets[r.Head] = t
			if ps := (predSign{key: t.atom.Key(), neg: t.neg}); !runs || ps != runPS {
				if runs {
					g.targetsByPred[runPS] = runTgs
				}
				runPS, runs, runTgs = ps, true, g.targetsByPred[ps]
			}
			runTgs = append(runTgs, t)
		}
		if !t.ownedBy(r.Comp) {
			t.comps = append(t.comps, r.Comp)
			if t.grownAt != g.pass {
				t.grownAt = g.pass
				grown = append(grown, t)
			}
		}
	}
	if runs {
		g.targetsByPred[runPS] = runTgs
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
	var tgArgs []term.ID                             // resolved on the first head match
	byComp := g.heads[ps]
	for ci := range g.src.Components {
		var cands []*candidate
		if byComp != nil {
			cands = byComp[ci]
		}
		var extra []*ast.Rule
		if newFrom == 0 {
			extra = g.extra[ci] // ground facts: nothing open to revisit
		}
		if len(cands)+len(extra) == 0 || !g.canCompete(tg, ci) {
			continue
		}
		if tgArgs == nil {
			tgArgs = g.atomArgs(tg.atom)
		}
		for _, c := range cands {
			if newFrom > 0 && len(c.open) == 0 {
				continue
			}
			if err := g.matchCandidate(tg, tgArgs, ci, c, newFrom); err != nil {
				return err
			}
		}
		for _, r := range extra {
			if r.Head.Neg != ps.neg || r.Head.Atom.Key() != ps.key {
				continue
			}
			fact := candidate{r: r}
			if err := g.matchCandidate(tg, tgArgs, ci, &fact, newFrom); err != nil {
				return err
			}
		}
	}
	return nil
}

// atomArgs returns the argument ids of an interned atom, in the grounder's
// target scratch (valid until the next call).
func (g *grounder) atomArgs(a ast.Atom) []term.ID {
	tt := g.tab.TermTable()
	ids := g.tgtArgs[:0]
	for _, t := range a.Args {
		id, _ := tt.Lookup(t) // interned together with the atom
		ids = append(ids, id)
	}
	g.tgtArgs = ids
	return ids
}

// matchCandidate head-matches one candidate of component ci against the
// target (tgArgs: its argument ids) and instantiates its bodies on success.
// A ground fact matches only the target's own atom and binds nothing.
func (g *grounder) matchCandidate(tg *target, tgArgs []term.ID, ci int, c *candidate, newFrom int) error {
	g.compCandidates++
	if c.c == nil {
		if !c.r.Head.Atom.Equal(tg.atom) {
			return nil
		}
		return g.emitCompetitors(ci, c, g.compiled(nil, c.r), deltaNone, newFrom)
	}
	mark := g.f.Mark()
	var err error
	if g.f.Match(g.tab.TermTable(), c.c.atoms[0].args, tgArgs) {
		err = g.emitCompetitors(ci, c, c.c, deltaNone, newFrom)
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
func (g *grounder) emitCompetitors(comp int, c *candidate, cr *crule, delta deltaRestrict, newFrom int) error {
	if len(c.edb) == 0 {
		if delta.pos >= 0 {
			return nil // requested delta occurrence does not exist
		}
		return g.enumerateOpen(comp, c, cr, 0, newFrom)
	}
	// Join items: positive EDB literals bind from the fact relation, joined
	// in planner order.
	joinLits := g.jls[:0]
	first := -1
	nth := 0
	for i, l := range c.edb {
		joinLits = append(joinLits, storage.JoinLit{Rel: g.st.Peek(l.rel), Args: l.args})
		if delta.pos >= 0 && l.key == delta.key {
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
		return g.enumerateOpen(comp, c, cr, 0, newFrom)
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
func (g *grounder) enumerateOpen(comp int, c *candidate, cr *crule, i, newFrom int) error {
	if i == len(c.open) {
		if newFrom > 0 {
			return nil // no open variable: growth has nothing to add
		}
		tt := g.tab.TermTable()
		for _, l := range c.negEDB {
			args, ok := g.f.Lookup(tt, l.atom.args, g.argBuf[:0])
			g.argBuf = args
			if ok && g.blockedByVisibleFact(l.atom.sym, args, comp, l.sh) {
				return nil
			}
		}
		return g.instantiate(comp, cr)
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
		err := g.enumerateOpen(comp, c, cr, i+1, next)
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
	buf := term.AppendID(kb[:0], sym)
	for _, id := range args {
		buf = term.AppendID(buf, id)
	}
	for _, cb := range g.factComps[string(buf)] {
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
// order is chosen by the shared selectivity planner; a ground fact has
// nothing to join and is its own only instance.
func (g *grounder) joinInstantiate(sr *srcRule) error {
	cr := g.compiled(sr.c, sr.r)
	return storage.Join(g.f, g.joinLits(sr), -1, !g.opts.NoJoinPlanner, func() error {
		return g.instantiate(sr.comp, cr)
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
