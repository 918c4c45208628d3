package ground

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/interrupt"
	"repro/internal/obs"
	"repro/internal/relevance"
	"repro/internal/storage"
	"repro/internal/term"
)

// Mode selects the grounding strategy.
type Mode int

const (
	// ModeSmart instantiates only relevant instances (fireable rules plus
	// their potential competitors); its atom table is the relevant
	// Herbrand base. The default.
	ModeSmart Mode = iota
	// ModeFull instantiates every rule over the whole universe and interns
	// the complete Herbrand base. Reference semantics; exponential in rule
	// width.
	ModeFull
)

// Options configures grounding.
type Options struct {
	Mode Mode
	// MaxDepth bounds functor nesting in the Herbrand universe; 0 or -1
	// (the default) uses the deepest term in the program.
	MaxDepth int
	// MaxUniverse, MaxAtoms and MaxInstances are size budgets (0 = default).
	MaxUniverse  int
	MaxAtoms     int
	MaxInstances int
	// NoEDBSimplify disables the EDB/CWA competitor simplification in
	// smart mode (ablation switch; results are unchanged, the competitor
	// pass just materialises provably blocked instances too).
	NoEDBSimplify bool
	// NoJoinPlanner disables the selectivity-driven join planner in the
	// possible-atom fixpoint and the smart-mode join passes, joining body
	// literals in source order instead (ablation switch; the ground program
	// is unchanged, only join cost differs).
	NoJoinPlanner bool
	// Goal, when non-empty, grounds only the query-reachable slice for
	// this conjunctive goal: the magic-set demand transform of
	// internal/relevance restricts the possible-atom fixpoint and the
	// fireable pass to demanded predicates and magic-reachable bindings,
	// while the competitor pass keeps the Definition 2 overruler/defeater
	// closure intact (see DESIGN §12 for the soundness argument). A
	// sliced program answers queries matching the goal pattern exactly
	// like the full grounding, but its Rules/atom table cover only the
	// slice and it supports no incremental updates (AssertFacts and
	// RetractFacts refuse). Requires ModeSmart.
	Goal []ast.Literal
}

// DefaultOptions returns the default grounding configuration.
func DefaultOptions() Options {
	return Options{Mode: ModeSmart, MaxDepth: -1, MaxUniverse: 1 << 20, MaxAtoms: 1 << 21, MaxInstances: 1 << 22}
}

// fill supplies the default of every zero field.
func (o *Options) fill() {
	if o.MaxDepth == 0 {
		o.MaxDepth = -1
	}
	if o.MaxUniverse == 0 {
		o.MaxUniverse = 1 << 20
	}
	if o.MaxAtoms == 0 {
		o.MaxAtoms = 1 << 21
	}
	if o.MaxInstances == 0 {
		o.MaxInstances = 1 << 22
	}
}

// Program is a grounded ordered program.
//
// Rules are its instances as of the last grounding or update. They are
// append-only: incremental updates (AssertFacts, RetractFacts) add
// instances at the end and never reorder or remove existing ones, so a
// prefix captured at one version stays valid forever. Retraction is
// expressed as per-snapshot dead sets maintained by the caller, not as
// mutation of the instances.
type Program struct {
	Src      *ast.OrderedProgram
	Tab      *interp.Table
	Rules    Instances
	Universe []ast.Term

	// cols holds the instances Rules is a prefix of (instances.go).
	cols columns

	// inc retains the smart-grounding working state (possible-atom store,
	// encoded rules, competitor targets, semi-naive watermarks) so facts can
	// be asserted and retracted in place. nil after full-mode grounding and
	// after goal-directed (sliced) grounding; sliced distinguishes the
	// latter so update fallbacks report the right reason.
	inc    *grounder
	sliced bool
}

// NumComponents returns the number of components of the source program.
func (g *Program) NumComponents() int { return len(g.Src.Components) }

// Dump writes the ground program in a readable form: instances grouped by
// component in source order, one rule per line, followed by a summary.
func (g *Program) Dump(w io.Writer) error {
	ins := g.Rules
	byComp := make([][]int, len(g.Src.Components))
	for i := 0; i < ins.Len(); i++ {
		c := int(ins.Comp(i))
		byComp[c] = append(byComp[c], i)
	}
	for ci, c := range g.Src.Components {
		if _, err := fmt.Fprintf(w, "%% component %s (%d instances)\n", c.Name, len(byComp[ci])); err != nil {
			return err
		}
		lines := make([]string, 0, len(byComp[ci]))
		for _, i := range byComp[ci] {
			lines = append(lines, ins.RuleString(i))
		}
		sort.Strings(lines)
		for _, l := range lines {
			if _, err := fmt.Fprintln(w, l); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "%% %d instances over %d atoms\n", ins.Len(), g.Tab.Len())
	return err
}

// GroundCtx instantiates the program. The source program must have been
// validated (parser output always is). Cancellation is cooperative: the
// grounder polls
// the context between grounding strata (possible-atom fixpoint, fireable
// pass, competitor pass; per rule in full mode) and every few hundred
// emitted instances, so a cancelled or expired context stops grounding
// within one checkpoint interval and returns an interrupt.Error.
func GroundCtx(ctx context.Context, p *ast.OrderedProgram, opts Options) (*Program, error) {
	opts.fill()
	if len(opts.Goal) > 0 && opts.Mode != ModeSmart {
		return nil, fmt.Errorf("ground: goal-directed grounding requires smart mode")
	}
	clock := startPhases()
	g, err := newGrounder(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	clock.done(phaseUniverse)
	switch opts.Mode {
	case ModeFull:
		err = g.full()
	case ModeSmart:
		err = g.smart(&clock)
	default:
		err = fmt.Errorf("ground: unknown mode %d", opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	gp := g.gp
	gp.Universe, gp.sliced = g.uni, g.rel != nil
	gp.publish()
	if opts.Mode == ModeSmart && g.rel == nil {
		// Sliced programs keep inc nil: their instance set is a function of
		// the goal, so in-place deltas would desynchronise them from the
		// full grounding they must agree with. Updates reground.
		gp.inc = g
		g.ctx = nil // updates carry their own context
	}
	if obs.On() {
		clock.flush()
		mGroundRuns.Inc()
		mGroundInstances.Add(int64(gp.cols.len))
		mCompetitorClosure.Add(int64(g.compInstances))
		mCompetitorTargets.Add(int64(g.compTargets))
		mCompetitorCandidates.Add(int64(g.compCandidates))
		if g.rel != nil {
			mMagicRuns.Inc()
			mMagicSeeds.Add(int64(len(g.rel.Seeds)))
			mMagicDemanded.Add(int64(g.rel.NumDemanded()))
			mMagicRestricted.Add(int64(g.rel.NumRestricted()))
			mMagicSkipped.Add(int64(g.skippedRules))
		}
	}
	return gp, nil
}

// newGrounder sets up an empty grounder for p under filled options: the
// source compiled to term ids, then the universe from the constants the
// compilation counted.
func newGrounder(ctx context.Context, p *ast.OrderedProgram, opts Options) (*grounder, error) {
	g := &grounder{
		src:  p,
		ctx:  ctx,
		opts: opts,
		tab:  interp.NewTable(),
		f:    &storage.Frame{},
	}
	g.gp = &Program{Src: p, Tab: g.tab}
	g.cols = &g.gp.cols
	g.cols.init(newRuleTable(p), 1<<10) // smart grounding resizes by its estimate
	b := g.tab.TermTable().Batch()
	g.compileSource(b)
	b.Done()
	if err := g.universe(opts.MaxDepth, opts.MaxUniverse); err != nil {
		return nil, err
	}
	if len(opts.Goal) > 0 {
		g.rel = relevance.Analyze(p, opts.Goal)
	}
	return g, nil
}

type grounder struct {
	src  *ast.OrderedProgram
	ctx  context.Context
	opts Options
	uni  []ast.Term
	tab  *interp.Table
	// gp is the program being grounded, and cols its instance columns,
	// which the grounder appends to.
	gp   *Program
	cols *columns
	// seen dedups instances and finds each one's index in cols, which is
	// how retraction finds the instance of a fact and re-assertion
	// resurrects it: it indexes instances by the hash of their identity
	// (component, head, body), so dedup costs no allocation per instance.
	seen term.Index
	// emitted counts instantiations for the stride-based context poll.
	emitted int
	// compInstances counts the instances the competitor pass appended —
	// the competitor-closure size — compTargets the targets it visited and
	// compCandidates the candidate rules that reached the head match; all
	// three flush to metrics when the run or update ends.
	compInstances, compTargets, compCandidates int
	// rel is the goal-directed demand analysis when Options.Goal is set;
	// nil grounds the full program. skippedRules counts source rules the
	// slicing dropped (head predicate not demanded).
	rel          *relevance.Analysis
	skippedRules int
	// factComps maps ground-fact atoms — keyed by their packed interned
	// term ids (predicate symbol id then argument ids) — to the components
	// asserting them; built by predShapes for the competitor pass.
	factComps map[string][]int
	// bodyBuf is the scratch an instance's body is built in before dedup.
	bodyBuf []interp.Lit
	// f is the frame every join and head match binds (all slots unbound
	// between uses), sized for the widest compiled rule. uniIDs are the
	// universe's term ids, in g.uni order; uniFallback says the universe is
	// the fresh-constant fallback. argBuf, atomBuf and idBuf are the
	// scratch an instance's atoms are built and interned in; jls the scratch
	// competitor and delta joins list their literals in.
	f           *storage.Frame
	uniIDs      []term.ID
	uniFallback bool
	argBuf      []term.ID
	atomBuf     []interp.IDAtom
	idBuf       []interp.AtomID
	jls         []storage.JoinLit

	// The source compiled to ids (compileSource). preds are its predicates,
	// and those of asserted facts, numbered densely in order of first
	// appearance; predIDs finds them by key. crules are the rules that are
	// not ground facts, in source order; facts the source's ground facts,
	// in source order, then the facts asserted since, and factArgs their
	// argument ids (see fact). seq is the source order over rules and facts
	// (>= 0: a crules index, < 0: the complement of a facts index), kept
	// only for the run. functors are the function symbols of rule and fact
	// arguments in order of first appearance, depth their deepest nesting
	// and hasVars whether some rule has a variable: with constRefs, what
	// the universe is built from.
	preds    []pred
	predIDs  map[ast.PredKey]int32
	crules   []crule
	facts    []fact
	factArgs []term.ID
	seq      []int32
	functors []ast.PredKey
	depth    int
	hasVars  bool

	// Smart-mode state retained for incremental updates (delta.go). All of
	// it is mutated only under the engine's write lock.
	st         *storage.Store    // possible-atom store (t:/f:/$dom relations)
	dom        *storage.Relation // $dom, nil when no encoded body joins it
	dlSrc      []srcRule         // source rules with their encoded datalog bodies
	inUniverse idSet             // universe membership by interned id
	// cands are the crules prepared as competitor-pass candidates, one per
	// crule at the same index; each predicate side lists them, and its
	// facts, per component in source order. openSigns lists (in source
	// order) the target sides some candidate with open variables competes
	// against — the only targets universe growth has to revisit.
	cands     []candidate
	openSigns []predSide
	// targets are the competitor-pass targets, numbered in creation order,
	// and pool holds their owning components: target t's are the nComps
	// entries from t.comps on, in one chunk; nPool counts the pool's
	// entries, spent or not. tgtOf is the target of each head literal
	// emitted so far, indexed by the literal. While registering is set,
	// every new instance registers its head; grown collects, in
	// registration order, the targets the current pass created or gave a
	// new owning component.
	targets     column[target]
	nTargets    int
	pool        column[int32]
	nPool       int
	tgtOf       litTargets
	registering bool
	grown       []int32
	pass        int32               // registration passes so far (target.grownAt stamp)
	marks       map[ast.PredKey]int // relation sizes at the end of the last (delta) pass
	// constRefs counts, per constant (indexed by interned term id), its
	// occurrences in the effective program: in every rule, and in every
	// fact in effect, once per component however often it is written. A
	// retraction that would drop a count to zero shrinks the Herbrand
	// universe a rebuild computes, so it falls back to regrounding.
	constRefs []int
	// poisoned marks the incremental state unusable after a mid-update
	// error (budget overrun, interruption): partial appends are already
	// recorded in seen/rules, so further in-place updates could dedup
	// against instances no snapshot contains. Callers fall back to a fresh
	// reground.
	poisoned bool
}

// pred is one predicate of the compiled source: its key, its
// possible-atom relation keys by sign (enc[0] possibly true, enc[1]
// possibly false) and the relations once they exist, its shape, and the
// competitor pass's per-sign side tables. edb lists the candidates with an
// EDB-joined body literal on it (each candidate once).
type pred struct {
	key   ast.PredKey
	enc   [2]ast.PredKey
	rels  [2]*storage.Relation
	shape predShape
	sides [2]side
	edb   []compCandidate
}

// side is the competitor pass's view of one predicate sign: the
// candidates whose head has that sign, per component in source order
// (>= 0: a cands index, < 0: the complement of a facts index), and the
// targets with that sign, in registration order. bodyless lists the crules
// with that head sign and no body (a universal fact p(X), or a head over
// builtins alone): the rules that can make a fact's instance too.
type side struct {
	cands    [][]int32
	tgts     []int32
	bodyless []int32
}

// predSide names one sign of one predicate.
type predSide struct {
	pid int32
	neg bool
}

// side returns the side tables of one predicate sign.
func (g *grounder) side(pid int32, neg bool) *side { return &g.preds[pid].sides[b2i(neg)] }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fact is a ground fact — no body, no builtins, a ground head — as one row
// of ids: its component, predicate, symbol and head sign, and args, the
// offset of its argument ids in factArgs (as many as its predicate's
// arity). at is the dlSrc index the fact is seeded and instantiated just
// before (-1 when smart grounding does not take it as a fact: a slice
// skips it, it joins its demand guard as a rule, or it was asserted since
// grounding). src is the source of its instance: a source fact's number in
// the rule table, or, for a fact asserted since, the complement of its own
// row. gone marks a fact retracted and not asserted again. Nothing in it
// is a pointer.
type fact struct {
	comp, pid int32
	sym       term.ID
	args      int32
	at, src   int32
	neg, gone bool
}

// argsOf returns the argument ids of fact f.
func (g *grounder) argsOf(f *fact) []term.ID {
	end := int(f.args) + g.preds[f.pid].key.Arity
	return g.factArgs[f.args:end:end]
}

// factOf returns the row of the fact whose instance is idx, a bodyless
// instance. Its source names the row: directly for an asserted fact, by
// rule number for a source one (source rows come first, numbered in order).
// false when a bodyless rule made the instance.
func (g *grounder) factOf(idx int32) (int32, bool) {
	src := g.cols.rows.at(int(idx)).src
	if src < 0 {
		return ^src, true
	}
	i := sort.Search(len(g.facts), func(i int) bool { s := g.facts[i].src; return s < 0 || s >= src })
	return int32(i), i < len(g.facts) && g.facts[i].src == src
}

// srcRule pairs a compiled source rule with its owning component and its
// encoded body (possible-atom literals plus $dom literals for free vars)
// compiled over the rule's slots.
type srcRule struct {
	comp int
	c    *crule
	body []encLit
}

// encLit is one compiled literal of an encoded body: a possible-atom (or
// $dom) relation and the argument patterns.
type encLit struct {
	key  ast.PredKey
	args []storage.Pat
}

// catom is a compiled rule atom: predicate name, symbol id and dense id,
// sign, and argument patterns.
type catom struct {
	pred string
	sym  term.ID
	pid  int32
	neg  bool
	args []storage.Pat
}

// crule is a source rule compiled for the join kernel: frame slot i holds
// vars[i] (r.Vars() order), atoms[0] is the head and atoms[1:] the body.
// ord is r's number in the rule table.
type crule struct {
	r     *ast.Rule
	comp  int32
	ord   int32
	vars  []ast.Var
	atoms []catom
}

// writeRoom is how many fact rows, argument ids and constants a grounding
// leaves room for past the source's.
const writeRoom = 64

// compileSource compiles the whole source to ids under the batch b: a
// ground fact to a fact row, any other rule to a crule whose atoms and
// patterns are carved from two slabs. Every constant occurrence is counted
// into constRefs on the way, and every function symbol and nesting depth
// of an argument noted.
func (g *grounder) compileSource(b term.Batch) {
	nFacts, nArgs, nRules, nAtoms, nPats := 0, 0, 0, 0, 0
	for _, c := range g.src.Components {
		for _, r := range c.Rules {
			if r.IsGroundFact() {
				nFacts++
				nArgs += len(r.Head.Atom.Args)
				continue
			}
			nRules++
			nAtoms += 1 + len(r.Body)
			nPats += len(r.Head.Atom.Args)
			for _, l := range r.Body {
				nPats += len(l.Atom.Args)
			}
		}
	}
	g.predIDs = make(map[ast.PredKey]int32)
	// Room past the source for what the writes after a grounding add — fact
	// rows, their argument ids, new constants — so the first of them copies
	// none of the source's. Argument positions plus atoms about bound the
	// term ids constRefs is indexed by.
	g.facts = make([]fact, 0, nFacts+writeRoom)
	g.factArgs = make([]term.ID, 0, nArgs+writeRoom)
	g.constRefs = make([]int, 0, nArgs+nPats+nFacts+nAtoms+writeRoom)
	g.crules = make([]crule, 0, nRules)
	g.seq = make([]int32, 0, nFacts+nRules)
	atoms := make([]catom, 0, nAtoms)
	pats := make([]storage.Pat, 0, nPats)
	ord := int32(-1) // the rule's number in the rule table
	for ci, c := range g.src.Components {
		for _, r := range c.Rules {
			ord++
			if !r.IsGroundFact() {
				ri := int32(len(g.crules))
				g.seq = append(g.seq, ri)
				g.crules = append(g.crules, crule{})
				cr := &g.crules[ri]
				g.compileRule(b, r, ci, ord, cr, &atoms, &pats)
				g.addRuleRefs(b, r)
				g.hasVars = g.hasVars || len(cr.vars) > 0
				if len(r.Body) == 0 {
					sd := g.side(cr.atoms[0].pid, cr.atoms[0].neg)
					sd.bodyless = append(sd.bodyless, ri)
				}
				continue
			}
			start := int32(len(g.factArgs))
			for _, t := range r.Head.Atom.Args {
				id := b.Intern(t)
				g.factArgs = append(g.factArgs, id)
				g.addTermRefs(b, t, id, true)
			}
			sym := b.InternSym(r.Head.Atom.Pred)
			g.seq = append(g.seq, ^int32(len(g.facts)))
			g.facts = append(g.facts, fact{
				comp: int32(ci), pid: g.predID(r.Head.Atom.Key()), sym: sym,
				args: start, at: -1, src: ord, neg: r.Head.Neg,
			})
		}
	}
}

// compileRule compiles r, of component ci and numbered ord in the rule
// table, into c, carving its atoms and patterns from the slabs (appends
// that outgrow a slab leave earlier rules' sub-slices valid), and makes
// room for its slots in the frame.
func (g *grounder) compileRule(in term.Interner, r *ast.Rule, ci int, ord int32, c *crule, atoms *[]catom, pats *[]storage.Pat) {
	c.r, c.comp, c.ord, c.vars = r, int32(ci), ord, r.Vars()
	start := len(*atoms)
	add := func(l ast.Literal) {
		ps := len(*pats)
		*pats = storage.AppendPats(*pats, in, l.Atom.Args, &c.vars)
		sym := in.InternSym(l.Atom.Pred)
		*atoms = append(*atoms, catom{pred: l.Atom.Pred, sym: sym, pid: g.predID(l.Atom.Key()), neg: l.Neg, args: (*pats)[ps:len(*pats):len(*pats)]})
	}
	add(r.Head)
	for _, l := range r.Body {
		add(l)
	}
	c.atoms = (*atoms)[start:len(*atoms):len(*atoms)]
	g.f.Reserve(len(c.vars))
}

// predID returns the dense id of the predicate k, numbering it if it is
// new.
func (g *grounder) predID(k ast.PredKey) int32 {
	if n := len(g.preds); n > 0 && g.preds[n-1].key == k {
		return int32(n - 1) // facts come in runs of one predicate
	}
	if id, ok := g.predIDs[k]; ok {
		return id
	}
	id := int32(len(g.preds))
	g.preds = append(g.preds, pred{
		key: k, enc: [2]ast.PredKey{encKey(k, false), encKey(k, true)},
		shape: predShape{onlyFactPos: true, noOtherNeg: true, cwaComp: -1},
	})
	g.predIDs[k] = id
	return id
}

// relOf returns the possible-atom relation of one predicate sign, creating
// it if create is set; nil when it does not exist and create is not set.
func (g *grounder) relOf(pid int32, neg, create bool) *storage.Relation {
	p := &g.preds[pid]
	i := b2i(neg)
	if p.rels[i] == nil {
		if create {
			p.rels[i] = g.st.Rel(p.enc[i])
		} else {
			p.rels[i] = g.st.Peek(p.enc[i])
		}
	}
	return p.rels[i]
}

// target is one competitor-pass target: a retained head literal — its
// atom, predicate and sign — and the components owning instances with that
// head, a run of the grounder's pool (a handful at most, so scanned
// linearly). grownAt is the registration pass that last returned it as
// grown. Nothing in it is a pointer.
type target struct {
	atom          interp.AtomID
	pid           int32
	comps, nComps int32
	grownAt       int32
	neg           bool
}

// tgt returns target t.
func (g *grounder) tgt(t int32) *target { return g.targets.ref(int(t)) }

// compsOf returns the components owning target tg's head.
func (g *grounder) compsOf(tg *target) []int32 {
	if tg.nComps == 0 {
		return nil
	}
	return g.pool.run(int(tg.comps), int(tg.nComps))
}

// litTargets maps head literals to their targets (numbered from 1, 0 for
// none), in fixed chunks of litChunk entries indexed by the literal:
// literals are dense, a chunk is allocated on its first target, and
// adding one never copies the others.
type litTargets [][]int32

const litChunk = 256

// get returns the target of l, or -1.
func (m litTargets) get(l interp.Lit) int32 {
	if c := int(l) / litChunk; c < len(m) && m[c] != nil {
		return m[c][int(l)%litChunk] - 1
	}
	return -1
}

func (m *litTargets) set(l interp.Lit, t int32) {
	c := int(l) / litChunk
	for c >= len(*m) {
		*m = append(*m, nil)
	}
	if (*m)[c] == nil {
		(*m)[c] = make([]int32, litChunk)
	}
	(*m)[c][int(l)%litChunk] = t + 1
}

// idSet is a set of term ids, dense by id: ids are small and dense, so
// membership is an index, not a hash.
type idSet []bool

func (s idSet) has(id term.ID) bool { return int(id) < len(s) && s[id] }

func (s *idSet) add(id term.ID) {
	for int(id) >= len(*s) {
		*s = append(*s, false)
	}
	(*s)[id] = true
}

// instantiate builds the ground instance of c under the frame's bindings,
// interning its atoms directly, and records it unless a duplicate (per
// component) was seen. Instances whose builtins fail are dropped. Returns
// an error only on budget overrun or a non-ground instance (an internal
// bug).
func (g *grounder) instantiate(comp int, c *crule) error {
	if err := g.poll(); err != nil {
		return err
	}
	head, body, keep, err := g.buildInstance(c, g.bodyBuf[:0])
	g.bodyBuf = body
	if err != nil || !keep {
		return err
	}
	return g.record(comp, head, body, c.ord, c.atoms[0].pid, slices.Max(g.idBuf))
}

// factBatch is how many facts the fireable pass hands instantiateFacts at
// once.
const factBatch = 32

// instantiateFacts records the instances of the given facts (facts
// indexes), interning their heads straight from the facts' ids under one
// atom-table lock. first says this is each fact's first instantiation,
// whose copies of a fact already counted leave the counts.
func (g *grounder) instantiateFacts(fs []int32, first bool) error {
	atoms := g.atomBuf[:0]
	for _, i := range fs {
		f := &g.facts[i]
		atoms = append(atoms, interp.IDAtom{Pred: g.preds[f.pid].key.Name, Sym: f.sym, Args: g.argsOf(f)})
	}
	g.atomBuf = atoms
	ids := g.tab.InternAtoms(g.idBuf[:0], atoms)
	g.idBuf = ids
	for k, i := range fs {
		if err := g.poll(); err != nil {
			return err
		}
		f := &g.facts[i]
		head := interp.MkLit(ids[k], f.neg)
		n := g.cols.len
		if err := g.record(int(f.comp), head, nil, f.src, f.pid, ids[k]); err != nil {
			return err
		}
		if first && g.cols.len == n {
			// Another copy of the fact recorded the instance first: the
			// fact counts once. (When a bodyless rule made the instance, the
			// fact stays counted; a retract of it regrounds.)
			idx, _ := g.findInstance(instanceHash(int(f.comp), head, nil), int(f.comp), head, nil)
			if _, ok := g.factOf(idx); ok {
				g.addRefs(g.argsOf(f), -1)
			}
		}
	}
	return nil
}

// poll counts an instantiation and polls the context every 256 of them (a
// single rule can expand to universe^vars instances, so per-stratum
// checkpoints alone would not bound the interruption latency).
func (g *grounder) poll() error {
	g.emitted++
	if g.emitted%256 == 0 {
		return g.check("ground: instance emission")
	}
	return nil
}

// record retains the instance head <- body of component comp, from source
// rule src (its rule-table number) whose head predicate is pid, unless a
// duplicate was seen, and
// registers its head as a competitor-pass target while registering — a
// duplicate too: a delta pass can find fireable an instance an earlier
// competitor pass emitted, which no pass registered, and a rebuild's
// fireable pass would register it. top is the instance's largest atom id:
// atom ids are dense, so the atom table outgrew its budget exactly when
// some instance holds an id past it.
func (g *grounder) record(comp int, head interp.Lit, body []interp.Lit, src, pid int32, top interp.AtomID) error {
	h := instanceHash(comp, head, body)
	if _, dup := g.findInstance(h, comp, head, body); dup {
		if g.registering {
			g.register(head, int32(comp), pid)
		}
		return nil
	}
	g.appendInstance(h, head, int32(comp), body, src)
	if g.registering {
		g.register(head, int32(comp), pid)
	}
	if int(top) >= g.opts.MaxAtoms {
		return &ErrBudget{"atom", g.opts.MaxAtoms}
	}
	if g.cols.len > g.opts.MaxInstances {
		return &ErrBudget{"instance", g.opts.MaxInstances}
	}
	return nil
}

// instanceHash is the FNV-1a hash of an instance's identity on the interned
// encoding: component, head literal, body literals.
func instanceHash(comp int, head interp.Lit, body []interp.Lit) uint64 {
	h := term.Mix(term.Mix(term.HashSeed, uint32(comp)), uint32(head))
	for _, l := range body {
		h = term.Mix(h, uint32(l))
	}
	return h
}

// hashAt is the instanceHash of instance i, recomputed from its row.
func (g *grounder) hashAt(i int32) uint64 {
	r := g.cols.rows.at(int(i))
	return instanceHash(int(r.comp), r.head, g.cols.bodyOf(r))
}

// findInstance returns the index of the instance with hash h and the
// given identity.
func (g *grounder) findInstance(h uint64, comp int, head interp.Lit, body []interp.Lit) (int32, bool) {
	c := g.cols
	for p := g.seen.Probe(h); ; {
		i, ok := p.Next()
		if !ok {
			return 0, false
		}
		if r := c.rows.at(int(i)); r.head == head && int(r.comp) == comp && slices.Equal(c.bodyOf(r), body) {
			return i, true
		}
	}
}

// appendInstance retains a new instance (findInstance missed it) with hash
// h, copying its body out of the scratch it was built in.
func (g *grounder) appendInstance(h uint64, head interp.Lit, comp int32, body []interp.Lit, src int32) {
	g.seen.Add(h, g.hashAt)
	copy(g.cols.add(head, comp, len(body), src), body)
}

// builtinsHold reports whether every builtin of c holds under the frame.
func (g *grounder) builtinsHold(c *crule) bool {
	if len(c.r.Builtins) == 0 {
		return true
	}
	res := storage.Resolver{F: g.f, Tab: g.tab.TermTable(), Vars: c.vars}
	for _, b := range c.r.Builtins {
		if !b.HoldsUnder(res.Term) {
			return false
		}
	}
	return true
}

// buildInstance evaluates c's builtins under the frame and interns its head
// and body atoms — argument ids straight from the frame, every atom under
// one atom-table lock — appending the body literals to buf. keep is false
// when a builtin fails.
func (g *grounder) buildInstance(c *crule, buf []interp.Lit) (head interp.Lit, body []interp.Lit, keep bool, err error) {
	if !g.builtinsHold(c) {
		return 0, buf, false, nil
	}
	tt := g.tab.TermTable()
	args := g.argBuf[:0]
	for i := range c.atoms {
		var ok bool
		if args, ok = g.f.Build(tt, c.atoms[i].args, args); !ok {
			g.argBuf = args
			return 0, buf, false, fmt.Errorf("ground: internal error: non-ground atom %s of %s", c.atoms[i].pred, c.r)
		}
	}
	g.argBuf = args
	atoms := g.atomBuf[:0]
	for i := range c.atoms {
		n := len(c.atoms[i].args)
		atoms = append(atoms, interp.IDAtom{Pred: c.atoms[i].pred, Sym: c.atoms[i].sym, Args: args[:n:n]})
		args = args[n:]
	}
	g.atomBuf = atoms
	ids := g.tab.InternAtoms(g.idBuf[:0], atoms)
	g.idBuf = ids
	head = interp.MkLit(ids[0], c.atoms[0].neg)
	for i, id := range ids[1:] {
		buf = append(buf, interp.MkLit(id, c.atoms[i+1].neg))
	}
	return head, buf, true, nil
}

// check is the grounder's cooperative checkpoint. Callers pass the full
// "ground: ..." stage constant so the hot path never concatenates.
func (g *grounder) check(stage string) error {
	return interrupt.Check(g.ctx, stage)
}

// appendFactKey appends the factComps key of a ground atom given by ids:
// the predicate symbol id followed by the argument ids.
func appendFactKey(buf []byte, sym term.ID, args []term.ID) []byte {
	buf = term.AppendID(buf, sym)
	for _, id := range args {
		buf = term.AppendID(buf, id)
	}
	return buf
}

// addRuleRefs counts every constant r mentions — head arguments, body
// arguments and builtin expressions, the same positions
// ast.OrderedProgram.Constants walks, so a count reaching zero means
// exactly that a rebuild's universe would no longer contain the constant.
func (g *grounder) addRuleRefs(in term.Interner, r *ast.Rule) {
	for _, t := range r.Head.Atom.Args {
		g.addTermRefs(in, t, term.None, true)
	}
	for _, l := range r.Body {
		for _, t := range l.Atom.Args {
			g.addTermRefs(in, t, term.None, true)
		}
	}
	for _, b := range r.Builtins {
		g.addExprRefs(in, b.L)
		g.addExprRefs(in, b.R)
	}
}

// addTermRefs counts the constants of t and returns its nesting depth; id
// is t's id when the caller has it (term.None: intern to find it). arg
// says t is an atom's argument, whose function symbols and depth bound the
// universe's functor closure (a builtin's terms do not).
func (g *grounder) addTermRefs(in term.Interner, t ast.Term, id term.ID, arg bool) int {
	switch c := t.(type) {
	case ast.Sym, ast.Int:
		if id == term.None {
			id = in.Intern(t)
		}
		g.addRef(id, 1)
	case ast.Compound:
		d := 0
		for _, a := range c.Args {
			d = max(d, g.addTermRefs(in, a, term.None, arg))
		}
		d++
		if arg {
			g.depth = max(g.depth, d)
			if f := (ast.PredKey{Name: c.Functor, Arity: len(c.Args)}); !slices.Contains(g.functors, f) {
				g.functors = append(g.functors, f)
			}
		}
		return d
	}
	return 0
}

func (g *grounder) addExprRefs(in term.Interner, e ast.Expr) {
	switch e := e.(type) {
	case ast.TermExpr:
		g.addTermRefs(in, e.Term, term.None, false)
	case ast.BinExpr:
		g.addExprRefs(in, e.L)
		g.addExprRefs(in, e.R)
	}
}

// addRef adds d to the occurrence count of the constant with id id.
func (g *grounder) addRef(id term.ID, d int) {
	for int(id) >= len(g.constRefs) {
		g.constRefs = append(g.constRefs, 0)
	}
	g.constRefs[id] += d
}

// addRefs adds d to the occurrence count of each of the constants ids.
func (g *grounder) addRefs(ids []term.ID, d int) {
	for _, id := range ids {
		g.addRef(id, d)
	}
}

// full enumerates every substitution of every rule over the universe and
// interns the complete Herbrand base.
func (g *grounder) full() error {
	for _, ref := range g.seq {
		if err := g.check("ground: full-mode rule"); err != nil {
			return err
		}
		if ref < 0 {
			if err := g.instantiateFacts([]int32{^ref}, true); err != nil {
				return err
			}
			continue
		}
		c := &g.crules[ref]
		if len(c.vars) > 0 && len(g.uni) == 0 {
			continue // variables but empty universe: no instances
		}
		var rec func(i int32) error
		rec = func(i int32) error {
			if int(i) == len(c.vars) {
				return g.instantiate(int(c.comp), c)
			}
			for _, id := range g.uniIDs {
				mark := g.f.Mark()
				g.f.Bind(i, id)
				err := rec(i + 1)
				g.f.Undo(mark)
				if err != nil {
					return err
				}
			}
			return nil
		}
		if err := rec(0); err != nil {
			return err
		}
	}
	// Intern the complete Herbrand base: every predicate over the universe.
	for _, k := range g.src.Predicates() {
		if err := g.check("ground: Herbrand-base interning"); err != nil {
			return err
		}
		if err := g.internAllAtoms(k); err != nil {
			return err
		}
	}
	return nil
}

func (g *grounder) internAllAtoms(k ast.PredKey) error {
	if k.Arity == 0 {
		g.tab.Intern(ast.Atom{Pred: k.Name})
		return nil
	}
	if len(g.uni) == 0 {
		return nil
	}
	args := make([]ast.Term, k.Arity)
	var rec func(i int) error
	rec = func(i int) error {
		if i == k.Arity {
			g.tab.Intern(ast.Atom{Pred: k.Name, Args: append([]ast.Term(nil), args...)})
			if g.tab.Len() > g.opts.MaxAtoms {
				return &ErrBudget{"atom", g.opts.MaxAtoms}
			}
			return nil
		}
		for _, t := range g.uni {
			args[i] = t
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}
