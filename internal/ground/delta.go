package ground

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/term"
)

// ErrNeedsReground reports that an incremental update cannot preserve the
// smart-grounding invariants in place and the caller must reground from
// source instead. It is a normal fallback signal, not a failure: negative
// fact assertions, retractions of facts the EDB/CWA simplification
// depended on, universe growth under function symbols, and updates against
// full-mode or poisoned ground programs all take this path.
//
// Fallback errors are returned as *RegroundError values that unwrap to
// this sentinel, so errors.Is(err, ErrNeedsReground) keeps matching while
// the concrete value names the cause.
var ErrNeedsReground = errors.New("ground: update requires regrounding")

// RegroundError is the concrete fallback error: ErrNeedsReground plus the
// reason the incremental path bailed. Reasons are short stable slugs
// ("negative-fact", "compound-args", "new-constant", "edb-retract",
// "universal-fact", "last-constant", "full-mode", "goal-sliced",
// "poisoned") usable as metric labels.
type RegroundError struct{ Reason string }

func (e *RegroundError) Error() string {
	return ErrNeedsReground.Error() + " (" + e.Reason + ")"
}

// Unwrap makes errors.Is(err, ErrNeedsReground) hold.
func (e *RegroundError) Unwrap() error { return ErrNeedsReground }

// needsReground builds the reason-tagged fallback error.
func needsReground(reason string) error { return &RegroundError{Reason: reason} }

// RegroundReason extracts the fallback reason from an update error: the
// RegroundError's reason, "unspecified" for a bare ErrNeedsReground, and
// "" for anything else.
func RegroundReason(err error) string {
	var re *RegroundError
	if errors.As(err, &re) {
		return re.Reason
	}
	if errors.Is(err, ErrNeedsReground) {
		return "unspecified"
	}
	return ""
}

// incrReason names why the program has no usable incremental state.
func (gp *Program) incrReason() error {
	if gp.sliced {
		return needsReground("goal-sliced")
	}
	if gp.inc == nil {
		return needsReground("full-mode")
	}
	return needsReground("poisoned")
}

// Delta describes the effect of one successful in-place update on the
// ground program's append-only rule list.
type Delta struct {
	// OldLen and NewLen delimit the instances this update appended:
	// Rules[OldLen:NewLen] are new. NewLen == len(Rules) afterwards.
	OldLen, NewLen int
	// Existing lists instance indexes < OldLen that this update re-asserted
	// (facts that were present before, possibly retracted by the caller's
	// snapshot and now resurrected). The caller owns liveness bookkeeping,
	// so it decides whether each one changes anything.
	Existing []int32
}

// AssertFacts adds ground positive facts to the component at position comp,
// extending the possible-atom store, the rule instances and the competitor
// closure in place by a delta-driven semi-naive pass. On success Rules has
// grown (append-only) and the returned Delta says by how much.
//
// It returns ErrNeedsReground — with the program unchanged — whenever the
// update cannot be expressed as a sound extension: negative facts (a new
// negative head can change predicate shapes — which competitor instances
// the EDB/CWA simplification dropped as provably blocked — and makes every
// retained complementary head a target of it, neither of which is an
// append to the possible-atom over-approximation), compound (functor)
// arguments, or fresh constants when the universe was functor-closed or
// used the no-constant fallback (both make the correct universe differ
// from "old universe plus the new constants").
//
// Concurrency: AssertFacts mutates shared grounder state and must be
// serialised with every other update to the same Program (the engine's
// write lock). Readers holding prefix snapshots of Rules are never
// invalidated, but the Rules and Universe headers themselves are
// republished without reader-side synchronisation — concurrent readers
// must go through a pinned snapshot, not the Program fields.
func (gp *Program) AssertFacts(ctx context.Context, comp int, facts []ast.Literal) (*Delta, error) {
	g := gp.inc
	if g == nil || g.poisoned {
		return nil, gp.incrReason()
	}
	if comp < 0 || comp >= len(gp.Src.Components) {
		return nil, fmt.Errorf("ground: component index %d out of range", comp)
	}
	// Validate before touching anything, so ErrNeedsReground (and invalid
	// input) always leaves the program unchanged.
	tt := g.tab.TermTable()
	var newConsts []ast.Term
	newSeen := make(map[ast.Term]bool)
	for _, f := range facts {
		if !f.Atom.Ground() {
			return nil, fmt.Errorf("ground: assert of non-ground fact %s", f)
		}
		if f.Neg {
			return nil, needsReground("negative-fact")
		}
		for _, t := range f.Atom.Args {
			if _, isCompound := t.(ast.Compound); isCompound {
				return nil, needsReground("compound-args")
			}
			if id, ok := tt.Lookup(t); ok && g.inUniverse.has(id) {
				continue
			}
			if !newSeen[t] {
				newSeen[t] = true
				newConsts = append(newConsts, t)
			}
		}
	}
	if len(newConsts) > 0 {
		if g.hasFunctors || g.uniFallback {
			// A fresh constant changes the functor closure, or replaces the
			// synthetic u0 fallback constant: old universe + constant is not
			// the universe a rebuild would compute.
			return nil, needsReground("new-constant")
		}
		if len(g.uni)+len(newConsts) > g.opts.MaxUniverse {
			return nil, &ErrBudget{"universe", g.opts.MaxUniverse}
		}
	}

	// Point of no return: from here on an error leaves partial appends in
	// seen/rules, so the incremental state is poisoned and the caller must
	// reground. (The published Program header still describes the pre-update
	// prefix, so existing snapshots stay valid either way.)
	g.ctx = ctx
	defer func() { g.ctx = nil }()
	fail := func(err error) (*Delta, error) {
		g.poisoned = true
		g.registering = false
		return nil, err
	}

	// marks currently hold the pre-update relation sizes (recordMarks ran at
	// the end of the previous pass); keep a copy for the competitor delta.
	preMarks := make(map[ast.PredKey]int, len(g.marks))
	for k, n := range g.marks {
		preMarks[k] = n
	}

	oldUni := len(g.uni)
	if len(newConsts) > 0 {
		for _, c := range newConsts {
			id := tt.Intern(c)
			g.uni = append(g.uni, c)
			g.uniIDs = append(g.uniIDs, id)
			g.inUniverse.add(id)
			if g.dom != nil {
				g.dom.InsertIDs(g.uniIDs[len(g.uniIDs)-1:])
			}
		}
	}

	d := &Delta{OldLen: g.cols.len}
	var freshEDB []int32 // predicates of genuinely new facts on EDB/CWA shapes
	done := make(map[interp.Lit]bool, len(facts))
	g.registering = true
	g.pass++
	for _, f := range facts {
		head := interp.MkLit(g.tab.Intern(f.Atom), false)
		if done[head] {
			continue
		}
		done[head] = true
		// The fact re-enters the effective program either way, listed on its
		// head's side after the source's, as the source of its own instance;
		// its constants count again towards the rebuild universe.
		fi := int32(len(g.facts) + len(g.asserted))
		pid := g.predID(f.Atom.Key())
		g.asserted = append(g.asserted, assertedFact{atom: head.Atom(), comp: int32(comp), pid: pid})
		nf := g.fact(fi)
		for _, id := range nf.args {
			g.addRef(id, 1)
		}
		sd := g.side(pid, false)
		if sd.cands == nil {
			sd.cands = make([][]int32, len(gp.Src.Components))
		}
		sd.cands[comp] = append(sd.cands[comp], ^fi)
		if idx, dup := g.findInstance(instanceHash(comp, head, nil), comp, head, nil); dup {
			// Already instantiated at some earlier version: resurrection (or
			// no-op) is the caller's liveness decision. The possible-atom
			// store, targets and competitors already account for it.
			d.Existing = append(d.Existing, idx)
			continue
		}
		if err := g.instantiateFacts([]int32{fi}); err != nil {
			return fail(err)
		}
		g.relOf(pid, false, true).InsertIDs(nf.args)
		if g.edbShape(pid) != nil {
			fk := string(appendFactKey(nil, nf.sym, nf.args))
			g.factComps[fk] = append(g.factComps[fk], comp)
			freshEDB = append(freshEDB, pid)
		}
	}

	if err := g.deltaPass(); err != nil {
		return fail(err)
	}
	g.registering = false

	// Competitor maintenance. Targets that are new or own a new component
	// rerun their full (idempotent) competitor instantiation. A pre-existing
	// target can gain competitor instances only through genuinely new facts
	// in EDB-joined competitor bodies, covered delta-wise, or — when the
	// universe grew — through a candidate's open variables taking a new
	// constant, covered by revisiting the targets such candidates compete
	// against for exactly those bindings.
	preComp := g.cols.len
	preTargets, preCandidates := g.compTargets, g.compCandidates
	if err := g.competitorsOf(g.takeGrown()); err != nil {
		return fail(err)
	}
	if err := g.deltaCompetitors(freshEDB, preMarks); err != nil {
		return fail(err)
	}
	revisited := 0
	if len(newConsts) > 0 {
		for _, ps := range g.openSigns {
			for _, ti := range g.side(ps.pid, ps.neg).tgts {
				tg := g.tgt(ti)
				if tg.grownAt == g.pass {
					continue // reran in full above, over the grown universe
				}
				if err := g.check("ground: competitor pass"); err != nil {
					return fail(err)
				}
				reached := g.compCandidates
				if err := g.competitorsFor(tg, oldUni); err != nil {
					return fail(err)
				}
				if g.compCandidates > reached {
					revisited++
				}
			}
		}
	}
	// Competitor-emitted instances are deliberately NOT registered as
	// targets of their own: the base grounding doesn't close that loop
	// either (a competitor instance not found by the fireable pass has an
	// unsatisfiable body, so rules that would compete against it can never
	// change any model), and an incremental update must produce exactly the
	// instance set a rebuild would.
	g.recordMarks()
	gp.publish()
	gp.Universe = g.uni
	d.NewLen = g.cols.len
	if obs.On() {
		mDeltaAsserts.Inc()
		mDeltaAssertInst.Add(int64(d.NewLen - d.OldLen))
		mCompetitorClosure.Add(int64(g.cols.len - preComp))
		mCompetitorTargets.Add(int64(g.compTargets - preTargets))
		mCompetitorCandidates.Add(int64(g.compCandidates - preCandidates))
		if len(newConsts) > 0 {
			mDeltaGrowth.Inc()
			mDeltaGrowthRevisited.Add(int64(revisited))
		}
	}
	return d, nil
}

// RetractFacts removes ground facts previously asserted in (or parsed
// into) the component at position comp. The ground program itself only
// forgets the fact as a future competitor source; the instances stay in
// Rules (append-only) and the returned indexes tell the caller which
// instances its snapshot must stop treating as live. Facts that were never
// present are silently skipped (their absence is already the desired
// state).
//
// Retraction of a positive fact on a predicate the EDB/CWA competitor
// simplification applied to returns ErrNeedsReground: grounding dropped
// competitor instances it proved blocked by that very fact, so removing it
// could resurrect instances that were never materialised. Facts with
// compound (functor) arguments take the same path, mirroring AssertFacts:
// losing the last occurrence of a functor or of a constant nested inside
// one shrinks the rebuild's functor-closed universe, which the per-constant
// reference counts below do not capture.
func (gp *Program) RetractFacts(comp int, facts []ast.Literal) ([]int32, error) {
	g := gp.inc
	if g == nil || g.poisoned {
		return nil, gp.incrReason()
	}
	if comp < 0 || comp >= len(gp.Src.Components) {
		return nil, fmt.Errorf("ground: component index %d out of range", comp)
	}
	// Validate and collect first, mutate only once nothing can fail: a
	// fallback must leave the program exactly as it was.
	type hit struct {
		idx  int32
		pid  int32
		neg  bool
		args []term.ID
		n    int // copies of the fact a rebuild drops
	}
	var hits []hit
	dec := make(map[term.ID]int)
	tt := g.tab.TermTable()
	done := make(map[interp.Lit]bool, len(facts))
	for _, f := range facts {
		if !f.Atom.Ground() {
			return nil, fmt.Errorf("ground: retract of non-ground fact %s", f)
		}
		pid, known := g.predIDs[f.Atom.Key()]
		if !f.Neg && known && g.edbShape(pid) != nil {
			// Grounding dropped competitor instances it proved blocked by
			// this very fact; removing it could resurrect instances that
			// were never materialised.
			return nil, needsReground("edb-retract")
		}
		for _, t := range f.Atom.Args {
			if _, isCompound := t.(ast.Compound); isCompound {
				// A compound argument nests constants the top-level dec
				// count below would miss, and removing a functor's last
				// occurrence shrinks the rebuild's functor closure, which
				// constRefs does not track at all.
				return nil, needsReground("compound-args")
			}
		}
		id, ok := g.tab.Lookup(f.Atom)
		if !ok {
			continue // atom never interned: the fact has no instance
		}
		head := interp.MkLit(id, f.Neg)
		if done[head] {
			continue
		}
		done[head] = true
		idx, present := g.findInstance(instanceHash(comp, head, nil), comp, head, nil)
		if !present {
			continue
		}
		// The bodyless instance about to be dead-marked may be pinned by a
		// source rule a rebuild keeps: a universal fact (p(X).) or a
		// builtin-only rule (p(c) :- c < d.) with a matching head would
		// regenerate it, so dead-marking would diverge from the rebuild. Only
		// the ground-equal true fact — which the rebuild removes too — is
		// safe to take in place. A rebuild removes every written copy of it,
		// and each copy was counted in constRefs, so all of them leave the
		// counts together — otherwise a constant's last occurrence would go
		// unnoticed. (Once such a fact has been re-asserted this over-counts,
		// which at worst regrounds early.)
		copies := 0
		args := g.tab.Key(id)[1:]
		var refs []int32
		if cands := g.side(pid, f.Neg).cands; known && cands != nil {
			refs = cands[comp]
		}
		for _, ref := range refs {
			if ref < 0 {
				// A source fact matches f only when it is f; asserted copies
				// are not counted.
				if fi := ^ref; int(fi) < len(g.facts) && slices.Equal(g.facts[fi].args, args) {
					copies++
				}
				continue
			}
			c := g.cands[ref].c
			if len(c.r.Body) != 0 {
				continue
			}
			mark := g.f.Mark()
			matched := g.f.Match(tt, c.atoms[0].args, args)
			g.f.Undo(mark)
			if matched {
				return nil, needsReground("universal-fact")
			}
		}
		h := hit{idx: idx, pid: pid, neg: f.Neg, args: args, n: max(copies, 1)}
		hits = append(hits, h)
		// Compound args were rejected above, so the arguments are every
		// constant the fact counted.
		for _, tid := range args {
			dec[tid] += h.n
		}
	}
	for k, n := range dec {
		if int(k) >= len(g.constRefs) || g.constRefs[k]-n <= 0 {
			// Last occurrence of a constant: a rebuild's Herbrand universe
			// would shrink, and with it the $dom enumerations behind both
			// fireable and competitor instances.
			return nil, needsReground("last-constant")
		}
	}
	gone := make([]int32, 0, len(hits))
	for _, h := range hits {
		gone = append(gone, h.idx)
		for _, tid := range h.args {
			g.addRef(tid, -h.n)
		}
		// Forget the first asserted copy of the fact so future competitor
		// passes no longer see it as a rule source. (Instances it already
		// caused stay: a competitor instance with an underivable or absent
		// premise is inert, and the seen index keeps resurrection cheap.)
		refs := g.side(h.pid, h.neg).cands[comp]
		for i, ref := range refs {
			if fi := ^ref; ref < 0 && int(fi) >= len(g.facts) && slices.Equal(g.fact(fi).args, h.args) {
				g.side(h.pid, h.neg).cands[comp] = append(refs[:i], refs[i+1:]...)
				break
			}
		}
	}
	if obs.On() {
		mDeltaRetracts.Inc()
		mDeltaRetractInst.Add(int64(len(gone)))
	}
	return gone, nil
}

// deltaCompetitors re-instantiates, delta-restricted, the competitor rules
// whose EDB-joined body literals gained tuples from genuinely new facts.
// With the universe unchanged, pre-existing targets (the grown ones already
// reran in full) can gain competitor instances only this way: non-EDB
// positive body literals and open variables were enumerated exhaustively
// over the universe when the target first appeared (AssertFacts covers a
// grown universe separately). One join runs per occurrence of
// the fact's predicate in each rule body, with that occurrence pinned to
// the delta — the standard semi-naive product cover; overlaps dedup.
func (g *grounder) deltaCompetitors(freshEDB []int32, preMarks map[ast.PredKey]int) error {
	if len(freshEDB) == 0 {
		return nil
	}
	donePred := make(map[int32]bool)
	tt := g.tab.TermTable()
	for _, k := range freshEDB {
		if donePred[k] {
			continue // the delta join covers every new fact of k at once
		}
		donePred[k] = true
		lo := preMarks[g.preds[k].enc[0]]
		for _, cc := range g.preds[k].edb {
			// Occurrence count of k among the EDB-joined literals of the rule.
			occ := 0
			for _, l := range cc.c.edb {
				if l.pid == k {
					occ++
				}
			}
			head := &cc.c.c.atoms[0]
			for _, ti := range g.side(head.pid, !head.neg).tgts {
				tg := g.tgt(ti)
				if !g.canCompete(tg, cc.comp) {
					continue
				}
				mark := g.f.Mark()
				if g.f.Match(tt, head.args, g.tab.Key(tg.atom)[1:]) {
					for pos := 0; pos < occ; pos++ {
						if err := g.check("ground: delta competitor pass"); err != nil {
							g.f.Undo(mark)
							return err
						}
						d := deltaRestrict{pid: k, lo: lo, pos: pos}
						if err := g.emitCompetitors(cc.comp, cc.c, d, 0); err != nil {
							g.f.Undo(mark)
							return err
						}
					}
				}
				g.f.Undo(mark)
			}
		}
	}
	return nil
}

// deltaPass runs the merged possible-atom/fireable semi-naive rounds over
// the tuples inserted since the last recordMarks: every encoded rule is
// joined once per body position with that position restricted to the
// delta, and each satisfying substitution both derives the head possible
// atom and instantiates the ground rule (the dedup absorbs substitutions
// reachable through several delta positions). Round 0 is skipped — the
// pre-delta store was already at fixpoint and fully instantiated.
func (g *grounder) deltaPass() error {
	derived := 0
	for {
		startSizes := make(map[ast.PredKey]int)
		for _, k := range g.st.Keys() {
			startSizes[k] = g.st.Peek(k).Len()
		}
		newThisRound := 0
		for j := range g.dlSrc {
			if err := g.check("ground: delta fixpoint"); err != nil {
				return err
			}
			sr := &g.dlSrc[j]
			for i := range sr.body {
				n, err := g.evalDeltaRule(sr, i)
				if err != nil {
					return err
				}
				newThisRound += n
				derived += n
				if g.opts.MaxAtoms > 0 && derived > g.opts.MaxAtoms {
					return &ErrBudget{"possible-atom", g.opts.MaxAtoms}
				}
			}
		}
		for k, n := range startSizes {
			g.marks[k] = n
		}
		if newThisRound == 0 {
			return nil
		}
	}
}

// evalDeltaRule joins one encoded rule body with position deltaPos
// restricted to its relation's delta, instantiating the source rule and
// inserting the head possible atom for every satisfying substitution. It
// returns the number of new possible-atom tuples.
func (g *grounder) evalDeltaRule(sr *srcRule, deltaPos int) (int, error) {
	dk := sr.body[deltaPos].key
	if rel := g.st.Peek(dk); rel == nil || rel.Len() <= g.marks[dk] {
		return 0, nil // empty delta: nothing new can bind here
	}
	jls := g.joinLits(sr)
	jls[deltaPos].Lo = g.marks[dk]
	inserted := 0
	head := &sr.c.atoms[0]
	tt := g.tab.TermTable()
	cr := sr.c
	err := storage.Join(g.f, jls, deltaPos, !g.opts.NoJoinPlanner, func() error {
		if !g.builtinsHold(cr) {
			return nil
		}
		if err := g.instantiate(sr.comp, cr); err != nil {
			return err
		}
		args, _ := g.f.Build(tt, head.args, g.argBuf[:0])
		g.argBuf = args
		if !g.atomFilter(args) {
			return nil
		}
		if g.relOf(head.pid, head.neg, true).InsertIDs(args) {
			inserted++
		}
		return nil
	})
	return inserted, err
}
