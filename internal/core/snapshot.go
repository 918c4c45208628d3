package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/interrupt"
	"repro/internal/obs"
	"repro/internal/proof"
	"repro/internal/stable"
)

// Snapshot is one immutable version of the engine's fact base. All query
// entry points read from a snapshot; Engine's query methods are shorthands
// that pin the current snapshot for one call. Updates (Engine.Update,
// Engine.Retract) never modify an existing snapshot — they publish a new
// one — so a goroutine holding a *Snapshot keeps reading exactly the
// version it pinned, unaffected by concurrent writers.
//
// Snapshots are cheap: an incremental update shares the interned-term
// storage, the append-only ground rule list and update history, and — for
// every component whose visible rules did not change — the parent's
// memoised views, least models and provers. Only components that can see
// a touched component are recomputed, lazily, on first use.
type Snapshot struct {
	eng     *Engine
	version uint64
	gp      *ground.Program

	// nAtoms is the size of this version's Herbrand base: the atoms of
	// gp.Tab when the version was published. Later writes intern into the
	// same table; this version's interpretations and views are sized by
	// nAtoms, so they never see those atoms.
	nAtoms int
	// written marks a version published by an incremental write: the
	// component states it creates are those the write affected.
	written bool

	// rules pins this version's prefix of gp.Rules; later updates append to
	// gp.Rules without invalidating the prefix. dead lists instance indexes
	// (< len(rules)) retracted as of this version. Both are immutable.
	rules []ground.Rule
	dead  map[int32]struct{}

	// log is the update history that produced this version, replayed over
	// the source to rebuild it (see Engine.rebuild). Like rules, it is a
	// prefix of an append-only slice: a child extends its parent's log in
	// place, so an entry below a published length is never rewritten, and
	// a compaction starts a fresh slice.
	log []factEvent

	mu    sync.Mutex
	comps map[int]*compState

	// slices is the per-snapshot cache of goal-directed slices (see
	// goal.go). Each snapshot starts empty, so every published update
	// invalidates all cached slices automatically, while pinned snapshots
	// keep serving their own version's slices.
	slices sliceCache

	// index is gp's occurrence index, shared by every snapshot over gp and
	// extended by the first reader pinning instances it does not cover
	// yet; this snapshot cuts goal slices and write cones with it, and
	// skips the instances past its prefix or in its dead set (see cut.go).
	// live, resolved once under liveOnce, counts the snapshot's live
	// instances per component for the cone's size bound.
	index    *occIndex
	liveOnce sync.Once
	live     []int32
}

// factKey identifies a ground fact rule by component position and rendered
// literal (the sign is part of the rendering).
type factKey struct {
	comp int
	lit  string
}

// factEvent is one entry of a snapshot's update history. ver is the
// version the event's batch published, so AsOf can cut the history at any
// past version by prefix.
type factEvent struct {
	comp    int
	lit     ast.Literal
	retract bool
	ver     uint64
}

func (ev factEvent) key() factKey { return factKey{comp: ev.comp, lit: ev.lit.String()} }

// compState holds the lazily built per-component artifacts. The view is
// construct-once/read-many under a sync.Once; the least model uses the
// channel-based singleflight of lazyCell so waiters can honour their own
// contexts; proverSem (a 1-slot semaphore acquired with context) serialises
// the memoising, non-reentrant goal-directed prover. Snapshots whose
// visible rules agree for a component share one compState, so an update
// carries the unaffected memos over to the new version.
type compState struct {
	viewOnce sync.Once
	view     *eval.View

	least lazyCell[*Model]
	// carry is what the writes since the nearest computed model of the
	// component left for deriving this state's model from it (cone.go);
	// nil once the model is computed, and when no ancestor's was.
	carry atomic.Pointer[carry]
	// afterWrite marks a state an incremental write created: the write
	// affected the component.
	afterWrite bool

	proverSem chan struct{}
	prover    *proof.Prover
}

// newCompState returns an empty per-component state; afterWrite marks one
// an incremental write created.
func newCompState(afterWrite bool) *compState {
	return &compState{proverSem: make(chan struct{}, 1), afterWrite: afterWrite}
}

// Version returns the snapshot's version number: 0 for the engine's
// initial grounding, incremented by every successful update.
func (s *Snapshot) Version() uint64 { return s.version }

// Engine returns the engine this snapshot belongs to.
func (s *Snapshot) Engine() *Engine { return s.eng }

// Source returns the original source program. Updates do not rewrite it;
// they are recorded against it (see Engine.Update).
func (s *Snapshot) Source() *ast.OrderedProgram { return s.eng.src }

// Grounded returns the underlying ground program. Treat it as read-only.
//
// The program is shared across snapshots: incremental updates republish its
// Rules and Universe slice headers (under the engine's write lock, which
// readers do not take), so reading those fields races with a concurrent
// Update/Retract. Use Grounded only when no update can be in flight —
// e.g. for diagnostics and dumps — and prefer the snapshot's own accessors
// (NumGroundRules, NumAtoms, View, query methods), which read this
// version's pinned state and are safe under concurrent writers.
func (s *Snapshot) Grounded() *ground.Program { return s.gp }

// NumGroundRules returns the number of live ground rule instances in this
// version (retracted instances excluded).
func (s *Snapshot) NumGroundRules() int { return len(s.rules) - len(s.dead) }

// NumAtoms returns the size of the (relevant) Herbrand base of this
// version.
func (s *Snapshot) NumAtoms() int { return s.nAtoms }

// NumDeadRules returns the number of retracted-but-carried rule
// instances in this version's pinned prefix: the population compaction
// exists to drain (it returns to 0 after every compact/reground).
func (s *Snapshot) NumDeadRules() int { return len(s.dead) }

// NumLogEvents returns the length of the carried update history —
// bounded by the number of distinct facts ever touched once compaction
// collapses it, by the total number of fact changes otherwise.
func (s *Snapshot) NumLogEvents() int { return len(s.log) }

// comp returns the shared per-component state, creating it on first use.
func (s *Snapshot) comp(i int) *compState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.comps[i]
	if !ok {
		st = newCompState(s.written)
		s.comps[i] = st
	}
	return st
}

// resolve maps a component name ("" = DefaultComponent) to its position.
func (s *Snapshot) resolve(comp string) (int, error) {
	if comp == "" {
		var err error
		comp, err = s.eng.DefaultComponent()
		if err != nil {
			return -1, err
		}
	}
	i, ok := s.gp.Src.ComponentIndex(comp)
	if !ok {
		return -1, fmt.Errorf("core: unknown component %q", comp)
	}
	return i, nil
}

// View returns the cached evaluation view for a component; comp == ""
// selects DefaultComponent. The view is built exactly once per component
// and version even under concurrent callers and is immutable afterwards.
func (s *Snapshot) View(comp string) (*eval.View, error) {
	i, err := s.resolve(comp)
	if err != nil {
		return nil, err
	}
	return s.viewAt(i), nil
}

func (s *Snapshot) viewAt(i int) *eval.View {
	return s.comp(i).viewOf(s.gp, i, s.rules, s.dead, s.nAtoms)
}

// viewOf returns the state's view, building it from the pinned instances
// of a version that shares the state on first use.
func (st *compState) viewOf(gp *ground.Program, i int, rules []ground.Rule, dead map[int32]struct{}, nAtoms int) *eval.View {
	built := false
	st.viewOnce.Do(func() {
		st.view = eval.NewViewAt(gp, i, rules, dead, nAtoms)
		built = true
	})
	countView(built)
	return st.view
}

// LeastModelCtx computes the least model of the program in the component
// as of this snapshot (see Engine.LeastModelCtx for the exact
// singleflight/cancellation contract).
func (s *Snapshot) LeastModelCtx(ctx context.Context, comp string) (*Model, error) {
	i, err := s.resolve(comp)
	if err != nil {
		return nil, err
	}
	st := s.comp(i)
	// Singleflight accounting: the goroutine that runs the fixpoint counts
	// one computation — under core.least.cone when the model came from a
	// write's cone — a caller that parks on someone else's run counts one
	// waiter (once), and a caller that finds the result already cached —
	// never having started or waited — counts one hit.
	coneAtoms := -1
	return st.least.get(ctx, "core: least-model wait", func(runCtx context.Context) (*Model, error) {
		if c := st.carry.Load(); c != nil {
			m, n, err := s.coneModel(runCtx, i, st, c)
			if m != nil || err != nil && !errors.Is(err, interrupt.ErrInterrupted) {
				coneAtoms = n
				return m, err
			}
			if err != nil {
				countConeFallback("interrupted")
			} else {
				countConeFallback("size")
			}
		} else if st.afterWrite {
			countConeFallback("no-base")
		}
		v := s.viewAt(i)
		in, err := v.LeastModelCtx(runCtx)
		if err != nil {
			return nil, err
		}
		return newModel(v, in), nil
	}, func(kind string) {
		if kind == "computed" {
			st.carry.Store(nil) // the model no longer needs its base
		}
		if kind == "computed" && coneAtoms >= 0 {
			countCone(coneAtoms)
		} else {
			countLeast(kind)
		}
		if kind == "computed" && s.eng.trace.Enabled() {
			s.eng.trace.Emit(obs.E("least",
				obs.F("comp", s.gp.Src.Components[i].Name),
				obs.F("version", s.version)))
		}
	})
}

// countLeast is the least-model memo accounting shared by component models
// and goal-slice models: one of "hit", "waited", "computed" per lookup.
func countLeast(kind string) {
	if !obs.On() {
		return
	}
	switch kind {
	case "hit":
		mLeastHits.Inc()
	case "waited":
		mLeastWaiters.Inc()
	case "computed":
		mLeastComputed.Inc()
	}
}

// countView is the view memo accounting shared the same way.
func countView(built bool) {
	if !obs.On() {
		return
	}
	if built {
		mViewBuilds.Inc()
	} else {
		mViewHits.Inc()
	}
}

// QueryCtx evaluates a conjunctive query against the component's least
// model as of this snapshot (see Model.Query), with cooperative
// cancellation of the underlying least-model computation. On a
// goal-directed engine (Config.GoalDirected) queries with a non-empty body
// evaluate against the goal's slice of the ground program instead of the
// component's full least model; answers are identical either way.
func (s *Snapshot) QueryCtx(ctx context.Context, comp string, q ast.Query) ([]Binding, error) {
	a, err := s.AnswersCtx(ctx, comp, q)
	if err != nil {
		return nil, err
	}
	return a.Bindings(), nil
}

// AnswersCtx is QueryCtx returning the answer set in its interned form,
// for callers that encode rows (Answers.AppendJSON) rather than read them.
func (s *Snapshot) AnswersCtx(ctx context.Context, comp string, q ast.Query) (*Answers, error) {
	if s.eng.cfg.GoalDirected && len(q.Body) > 0 {
		return s.answersGoalDirected(ctx, comp, q)
	}
	m, err := s.LeastModelCtx(ctx, comp)
	if err != nil {
		return nil, err
	}
	return m.Answers(q), nil
}

// AssumptionFreeModelsCtx enumerates the assumption-free models in the
// component as of this snapshot, with the order and partial-result
// contract of Engine.AssumptionFreeModelsCtx.
func (s *Snapshot) AssumptionFreeModelsCtx(ctx context.Context, comp string, opts stable.Options) ([]*Model, error) {
	v, err := s.View(comp)
	if err != nil {
		return nil, err
	}
	ms, enumErr := stable.AssumptionFreeModelsCtx(ctx, v, s.eng.fillStable(opts))
	if enumErr != nil && !partialEnumErr(enumErr) {
		return nil, enumErr
	}
	return wrapModels(v, ms), enumErr
}

// StableModelsCtx enumerates the stable models in the component as of this
// snapshot, with the partial-result contract of
// Engine.AssumptionFreeModelsCtx (see Engine.StableModelsCtx).
func (s *Snapshot) StableModelsCtx(ctx context.Context, comp string, opts stable.Options) ([]*Model, error) {
	v, err := s.View(comp)
	if err != nil {
		return nil, err
	}
	ms, enumErr := stable.StableModelsCtx(ctx, v, s.eng.fillStable(opts))
	if enumErr != nil && !partialEnumErr(enumErr) {
		return nil, enumErr
	}
	return wrapModels(v, ms), enumErr
}

// InterpFromLiterals builds a Model-shaped interpretation from AST
// literals for use with CheckModel and CheckAssumptionFree. Every atom
// must be in the (relevant) Herbrand base.
func (s *Snapshot) InterpFromLiterals(comp string, lits []ast.Literal) (*Model, error) {
	v, err := s.View(comp)
	if err != nil {
		return nil, err
	}
	in := v.NewInterp()
	for _, l := range lits {
		id, ok := s.gp.Tab.Lookup(l.Atom)
		if !ok || int(id) >= s.nAtoms {
			return nil, fmt.Errorf("literal %s: atom not in Herbrand base", l)
		}
		if !in.AddLit(interp.MkLit(id, l.Neg)) {
			return nil, fmt.Errorf("literal %s makes the interpretation inconsistent", l)
		}
	}
	return newModel(v, in), nil
}

// Update publishes a new snapshot with the given ground facts asserted in
// the component ("" = DefaultComponent) and returns it. Facts already in
// effect are no-ops; if every fact is, the current snapshot is returned
// unchanged (same version). The engine's current snapshot advances to the
// result; snapshots held by concurrent readers are unaffected.
//
// When the grounder's incremental state admits it, the update is applied
// as a delta — only components that can see the touched component lose
// their memoised views and least models, everything else is carried over —
// and otherwise the engine transparently regrounds the effective program
// (source plus update history) from scratch. Either way the returned
// snapshot answers queries exactly as an engine freshly built from the
// updated source would.
//
// Updates are serialised with each other but never block readers.
func (e *Engine) Update(ctx context.Context, comp string, facts []ast.Literal) (*Snapshot, error) {
	return e.update(ctx, comp, facts, false)
}

// Retract publishes a new snapshot with the given ground facts removed
// from the component ("" = DefaultComponent) and returns it. Facts not in
// effect are no-ops. The contract is otherwise that of Update; only fact
// rules can be retracted, and only the exact ground fact is removed — rule
// instances that derive the same literal are untouched, exactly as if the
// fact rule were deleted from the source and the engine rebuilt.
func (e *Engine) Retract(ctx context.Context, comp string, facts []ast.Literal) (*Snapshot, error) {
	return e.update(ctx, comp, facts, true)
}

func (e *Engine) update(ctx context.Context, comp string, facts []ast.Literal, retract bool) (*Snapshot, error) {
	verb := "assert"
	if retract {
		verb = "retract"
	}
	for _, f := range facts {
		if !f.Atom.Ground() {
			return nil, fmt.Errorf("core: %s needs ground facts, got %s", verb, f)
		}
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	parent := e.Current()
	ci, err := parent.resolve(comp)
	if err != nil {
		return nil, err
	}
	// Drop no-ops: asserting a fact already in effect or retracting one that
	// is not changes nothing, and the ground layer relies on the caller
	// filtering them (re-asserting a live fact must not double-count its
	// constants). keys holds the rendered facts kept, for liveness and WAL.
	live := e.liveness(parent)
	ops := make([]ast.Literal, 0, len(facts))
	keys := make([]string, 0, len(facts))
	seen := make(map[string]bool, len(facts))
	for _, f := range facts {
		k := f.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		if live[factKey{comp: ci, lit: k}] == retract {
			ops = append(ops, f)
			keys = append(keys, k)
		}
	}
	if len(ops) == 0 {
		return parent, nil
	}
	version := parent.version + 1
	log := parent.log
	for _, f := range ops {
		log = append(log, factEvent{comp: ci, lit: f, retract: retract, ver: version})
	}

	// Always try the incremental path: when the ground program lacks usable
	// incremental state the delta layer refuses immediately with a typed
	// *ground.RegroundError ("full-mode", "poisoned"), so every fallback —
	// inherent or tuning — carries its reason into the trace and counters.
	mode, reason := "incremental", ""
	child, err := e.applyIncremental(ctx, parent, ci, ops, retract, log)
	switch {
	case err == nil:
		// Replace the incremental child with a compacted rebuild at the
		// same version when it crosses a threshold. A failed compaction
		// (e.g. cancellation mid-reground) publishes the incremental child
		// instead: the update itself succeeded, and the thresholds
		// re-trigger next time.
		if e.needsCompact(len(child.dead), len(child.rules)) {
			if c, cerr := e.rebuild(ctx, version, log, len(child.dead), true); cerr == nil {
				child, mode = c, "compact"
			}
		}
	case errors.Is(err, ground.ErrNeedsReground):
		// A fallback reground drains the dead set (so only the cadence can
		// ask for compaction) but would carry the full history forward.
		// When the cadence is due, collapse the history as part of the
		// rebuild: the compaction is free and the log stays bounded by
		// distinct facts, not update count.
		reason = ground.RegroundReason(err)
		compact := e.needsCompact(0, 0)
		if child, err = e.rebuild(ctx, version, log, len(parent.dead), compact); err != nil {
			return nil, err
		}
		mode = "reground"
		if compact {
			mode = "compact"
		}
	default:
		return nil, err
	}

	// Write-ahead: the batch reaches the log (fsynced per policy) before
	// the snapshot becomes visible, so every observable version is
	// recoverable. An append failure discards the unpublished child.
	if err := e.walAppend(version, ci, verb, keys); err != nil {
		return nil, err
	}
	if mode == "compact" {
		e.finishCompact(version)
	} else {
		e.sinceCompact++
	}
	e.current.Store(child)
	for _, k := range keys {
		live[factKey{comp: ci, lit: k}] = !retract
	}
	if obs.On() {
		mUpdates.Inc()
		if reason == "" {
			mUpdatesIncr.Inc()
		}
		mVersion.Set(int64(version))
	}
	if reason != "" {
		countFallback(reason)
	}
	if e.trace.Enabled() {
		e.trace.Emit(e.updateEvent(parent, child, ci, verb, len(ops), mode, reason))
	}
	if err := e.walCheckpoint(child); err != nil {
		return nil, fmt.Errorf("core: update v%d applied and logged, checkpoint failed: %w", version, err)
	}
	return child, nil
}

// updateEvent builds the "update:" trace event in the historical line
// format, with the fallback reason appended when the incremental path
// bailed.
func (e *Engine) updateEvent(parent, child *Snapshot, ci int, verb string, n int, mode, reason string) obs.Event {
	fields := []obs.Field{
		obs.F("", fmt.Sprintf("v%d -> v%d", parent.version, child.version)),
		obs.F("comp", parent.gp.Src.Components[ci].Name),
		obs.F(verb, n),
		obs.F("mode", mode),
	}
	if reason != "" {
		fields = append(fields, obs.F("reason", reason))
	}
	return obs.Event{Name: "update", Fields: fields}
}

// applyIncremental applies the update through the grounder's in-place
// delta machinery and builds the child snapshot, sharing the parent's
// per-component state for every component that cannot see a touched one.
func (e *Engine) applyIncremental(ctx context.Context, parent *Snapshot, ci int, ops []ast.Literal, retract bool, log []factEvent) (*Snapshot, error) {
	touched := make(map[int]bool)
	dead := make(map[int32]struct{}, len(parent.dead)+len(ops))
	for i := range parent.dead {
		dead[i] = struct{}{}
	}
	// changed lists the instances the write appended, killed or
	// resurrected: their heads seed the cones of the affected components.
	var changed []int32
	if retract {
		gone, err := parent.gp.RetractFacts(ci, ops)
		if err != nil {
			return nil, err
		}
		for _, idx := range gone {
			dead[idx] = struct{}{}
			changed = append(changed, idx)
		}
	} else {
		d, err := parent.gp.AssertFacts(ctx, ci, ops)
		if err != nil {
			return nil, err
		}
		for i := d.OldLen; i < d.NewLen; i++ {
			changed = append(changed, int32(i))
		}
		for _, idx := range d.Existing {
			if _, wasDead := dead[idx]; wasDead {
				// Resurrection: the instance exists from an earlier version
				// and this snapshot brings it back to life.
				delete(dead, idx)
				changed = append(changed, idx)
			}
		}
	}
	rules := parent.gp.Rules
	for _, idx := range changed {
		touched[int(rules[idx].Comp)] = true
	}
	child := &Snapshot{
		eng:     e,
		version: parent.version + 1,
		gp:      parent.gp,
		nAtoms:  parent.gp.Tab.Len(),
		written: true,
		rules:   rules,
		dead:    dead,
		index:   parent.index,
		log:     log,
		comps:   make(map[int]*compState),
	}
	// A component's visible rules changed only if it can see a touched
	// component; everything else shares the parent's state pointer, so
	// views, least models and provers memoised on either version serve
	// both. An affected component gets the seeds to derive its model from
	// the nearest computed one (cone.go).
	for i := range parent.gp.Src.Components {
		affected := false
		for _, j := range parent.gp.Src.Above(i) {
			if touched[j] {
				affected = true
				break
			}
		}
		if !affected {
			child.comps[i] = parent.comp(i)
		} else if c := parent.carryFor(i, rules, changed); c != nil {
			st := newCompState(true)
			st.carry.Store(c)
			child.comps[i] = st
		}
	}
	return child, nil
}

// reground grounds the effective program of log (the source plus the
// replayed history) into a fresh snapshot at version with no carried-over
// state. An empty history grounds the source itself.
func (e *Engine) reground(ctx context.Context, version uint64, log []factEvent) (*Snapshot, error) {
	eff := e.src
	if len(log) > 0 {
		var err error
		if eff, err = effectiveProgram(e.src, log); err != nil {
			return nil, err
		}
	}
	gp, err := ground.GroundCtx(ctx, eff, e.cfg.Ground)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		eng:     e,
		version: version,
		gp:      gp,
		nAtoms:  gp.Tab.Len(),
		rules:   gp.Rules,
		index:   newOccIndex(gp),
		log:     log,
		comps:   make(map[int]*compState),
	}, nil
}

// groundFacts indexes the ground fact rules of a source program: the
// liveness every fact has before any update.
func groundFacts(src *ast.OrderedProgram) map[factKey]bool {
	facts := make(map[factKey]bool)
	for ci, c := range src.Components {
		for _, r := range c.Rules {
			if r.IsFact() && r.Head.Atom.Ground() {
				facts[factKey{comp: ci, lit: r.Head.String()}] = true
			}
		}
	}
	return facts
}

// liveness returns the tip's fact liveness (Engine.live), building it on
// first use from the source's ground facts folded with the tip's history:
// a recovered engine and an AsOf reconstruction's engine start with one.
// Called under writeMu.
func (e *Engine) liveness(tip *Snapshot) map[factKey]bool {
	if e.live == nil {
		e.live = groundFacts(e.src)
		for _, ev := range tip.log {
			e.live[ev.key()] = !ev.retract
		}
	}
	return e.live
}

// factRules is one component's rule list under edit by effectiveProgram:
// gone marks retracted positions, and byHead lists the live ground fact
// rules per rendered head, so an event costs its bucket, not a rule scan.
// Distinct atoms can render alike (Sym "1" and Int 1), so a bucket is
// filtered by Literal.Equal, never trusted by key alone.
type factRules struct {
	rules  []*ast.Rule
	gone   []bool
	byHead map[string][]int
}

func newFactRules(rules []*ast.Rule) *factRules {
	f := &factRules{rules: append([]*ast.Rule(nil), rules...), gone: make([]bool, len(rules)), byHead: make(map[string][]int)}
	for i, r := range rules {
		if r.IsFact() && r.Head.Atom.Ground() {
			k := r.Head.String()
			f.byHead[k] = append(f.byHead[k], i)
		}
	}
	return f
}

// apply replays one event: a retract removes every ground-equal fact
// rule, an assert appends the fact rule unless a ground-equal one is live.
func (f *factRules) apply(ev factEvent) {
	k := ev.lit.String()
	idx := f.byHead[k]
	if ev.retract {
		kept := idx[:0]
		for _, i := range idx {
			if f.rules[i].Head.Equal(ev.lit) {
				f.gone[i] = true
			} else {
				kept = append(kept, i)
			}
		}
		f.byHead[k] = kept
		return
	}
	for _, i := range idx {
		if f.rules[i].Head.Equal(ev.lit) {
			return
		}
	}
	f.byHead[k] = append(idx, len(f.rules)) // events are ground: update and decodeRecords reject others
	f.rules = append(f.rules, ast.Fact(ev.lit))
	f.gone = append(f.gone, false)
}

// live returns the surviving rules in order.
func (f *factRules) live() []*ast.Rule {
	out := make([]*ast.Rule, 0, len(f.rules))
	for i, r := range f.rules {
		if !f.gone[i] {
			out = append(out, r)
		}
	}
	return out
}

// effectiveProgram clones the source program and replays the update
// history: an assert appends the fact rule unless a ground-equal one is
// present, a retract removes every ground-equal fact rule. The result is
// the program a caller maintaining the source by hand would have built, so
// regrounding it yields exactly the semantics the snapshot must expose.
// The cost is linear in the program plus the history: each touched
// component's fact rules are indexed once by head.
func effectiveProgram(src *ast.OrderedProgram, log []factEvent) (*ast.OrderedProgram, error) {
	edits := make([]*factRules, len(src.Components))
	for _, ev := range log {
		if edits[ev.comp] == nil {
			edits[ev.comp] = newFactRules(src.Components[ev.comp].Rules)
		}
		edits[ev.comp].apply(ev)
	}
	p := ast.NewOrderedProgram()
	for i, c := range src.Components {
		rules := append([]*ast.Rule(nil), c.Rules...)
		if edits[i] != nil {
			rules = edits[i].live()
		}
		if err := p.AddComponent(&ast.Component{Name: c.Name, Rules: rules}); err != nil {
			return nil, err
		}
	}
	for _, ed := range src.Edges {
		if err := p.AddEdge(ed.Child, ed.Parent); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
