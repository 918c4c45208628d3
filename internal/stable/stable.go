// Package stable enumerates assumption-free and stable models of ordered
// programs (Definitions 7 and 9): a stable model is a maximal
// assumption-free model. The enumeration is exact: it branches three-valued
// (true/false/undefined) over the contested atoms only — atoms outside the
// least model whose literals are derivable at all — with sound pruning, and
// verifies each leaf with the Theorem 1(a) check. A large search fans out
// over GOMAXPROCS goroutines and returns the models in the order the
// in-line search finds them.
package stable

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/interp"
	"repro/internal/interrupt"
)

// ErrBudget reports that enumeration exceeded its leaf budget. Like the
// interrupt.ErrInterrupted cancellation sentinel, it is returned alongside
// the models found before the budget ran out — callers keep partial work.
var ErrBudget = errors.New("stable: search budget exceeded")

// Options configures enumeration.
type Options struct {
	// MaxLeaves caps the number of complete assignments examined
	// (0 = 1<<22).
	MaxLeaves int
	// MaxModels stops after this many assumption-free models (0 = all).
	// When set, the maximal filter applies to the collected prefix only.
	MaxModels int
	// NoPrune disables the Definition 3(a) doomed-branch prune (ablation
	// switch; the search then verifies every complete assignment).
	NoPrune bool
}

func (o *Options) fill() {
	if o.MaxLeaves == 0 {
		o.MaxLeaves = 1 << 22
	}
}

// enumState drives the three-valued DFS: the whole search when it runs
// in-line, one prefix task at a time inside a fan-out worker.
type enumState struct {
	v         *eval.View
	opts      Options
	least     *interp.Interp
	posP      *interp.Bitset // literals derivable at all (View.Possible)
	negP      *interp.Bitset
	atoms     []interp.AtomID // branch atoms in ascending id order
	branchPos []int           // atom id -> index in atoms, or -1
	cur       *interp.Interp
	leaves    int
	nodes     int64 // DFS nodes expanded, flushed to metrics at the end
	found     []*interp.Interp
	ords      []int // ords[i] is the leaf ordinal at which found[i] appeared
	overflow  bool
	// ctxDone is the enumeration context's Done channel (nil when the
	// search is unbounded) and stop a fan-out's shared flag (nil in-line);
	// dfs polls both at every node — the checkpoint interval of the
	// cancellation contract — and raises interrupted.
	ctxDone     <-chan struct{}
	stop        *atomic.Bool
	interrupted bool
}

// fanOutMinAtoms is the branch-atom count from which a search splits into
// prefix tasks: the smallest win–move cycle whose split search was faster
// in ≥ 9 of 10 pairs and took at most 15 % more CPU time than in-line
// (BenchmarkFanOutWinMoveCycle at GOMAXPROCS=2; EXPERIMENTS.md "One
// stable-model enumerator"). A variable only so tests can force either
// branch.
var fanOutMinAtoms = 10

// maxWorkers bounds the goroutines of a split search. A variable only so
// tests can force a worker count.
var maxWorkers = func() int { return runtime.GOMAXPROCS(0) }

// tasksPerWorker is the number of prefix tasks a split search aims to give
// each worker: subtree sizes vary widely, so several tasks per worker keep
// them all busy to the end.
const tasksPerWorker = 8

// AssumptionFreeModelsCtx enumerates the assumption-free models of the
// view's component in depth-first order (branch atoms ascending, each
// tried true, false, then undefined). The least model is always among
// them (Theorem 1).
//
// With GOMAXPROCS > 1 and at least fanOutMinAtoms branch atoms, the
// search splits on its first branch atoms into prefix tasks run on up to
// GOMAXPROCS goroutines; the task results are merged in task order, so
// the returned list, the MaxModels cut and the leaf-budget cut are
// exactly those of the in-line DFS.
//
// The DFS polls the context at every node, so a cancelled or expired
// context stops the search within one checkpoint interval and returns the
// models found so far — a prefix of the complete list — alongside an
// interrupt.Error. On ErrBudget the models found before the budget ran
// out are returned the same way.
func AssumptionFreeModelsCtx(ctx context.Context, v *eval.View, opts Options) ([]*interp.Interp, error) {
	opts.fill()
	least, err := v.LeastModelCtx(ctx)
	if err != nil {
		return nil, err
	}
	posP, negP := v.Possible()
	st := &enumState{v: v, opts: opts, least: least, posP: posP, negP: negP, ctxDone: ctx.Done()}
	st.branchPos = make([]int, v.NumAtoms())
	for i := range st.branchPos {
		st.branchPos[i] = -1
	}
	for i := 0; i < v.NumAtoms(); i++ {
		id := interp.AtomID(i)
		if least.Value(id) != interp.Undef {
			continue
		}
		if posP.Get(i) || negP.Get(i) {
			st.branchPos[i] = len(st.atoms)
			st.atoms = append(st.atoms, id)
		}
	}
	fanned := false
	if w := maxWorkers(); w > 1 && len(st.atoms) >= fanOutMinAtoms {
		st.fanOut(w)
		fanned = true
	} else {
		st.cur = least.Clone()
		st.dfs(0)
	}
	flushSearch(st.nodes, int64(st.leaves), int64(len(st.found)), st.overflow, fanned)
	if st.interrupted {
		return st.found, interrupt.Check(ctx, "stable: three-valued DFS")
	}
	if st.overflow {
		return st.found, ErrBudget
	}
	return st.found, nil
}

func (st *enumState) done() bool {
	return st.overflow || st.interrupted ||
		(st.opts.MaxModels > 0 && len(st.found) >= st.opts.MaxModels)
}

// poll raises interrupted once the context is done or the fan-out stopped.
func (st *enumState) poll() {
	if st.interrupted {
		return
	}
	if st.ctxDone != nil {
		select {
		case <-st.ctxDone:
			st.interrupted = true
			return
		default:
		}
	}
	if st.stop != nil && st.stop.Load() {
		st.interrupted = true
	}
}

func (st *enumState) dfs(k int) {
	st.nodes++
	st.poll()
	if st.done() {
		return
	}
	if k == len(st.atoms) {
		st.leaves++
		if st.leaves > st.opts.MaxLeaves {
			st.overflow = true
			return
		}
		if st.v.IsAssumptionFree(st.cur) {
			st.found = append(st.found, st.cur.Clone())
			st.ords = append(st.ords, st.leaves)
		}
		return
	}
	a := st.atoms[k]
	// Branch order: true, false, undefined — maximal models tend to appear
	// early, which helps when MaxModels is set.
	prune := func() bool { return !st.opts.NoPrune && st.doomed(k) }
	if st.posP.Get(int(a)) {
		st.cur.AddLit(interp.MkLit(a, false))
		if !prune() {
			st.dfs(k + 1)
		}
		st.cur.RemoveLit(interp.MkLit(a, false))
	}
	if st.done() {
		return
	}
	if st.negP.Get(int(a)) {
		st.cur.AddLit(interp.MkLit(a, true))
		if !prune() {
			st.dfs(k + 1)
		}
		st.cur.RemoveLit(interp.MkLit(a, true))
	}
	if st.done() {
		return
	}
	st.dfs(k + 1) // undefined
}

// task is one subtree of a split search, stored by what it decides: the
// branch atoms its prefix sets true or false, in ascending order, with
// every other atom below start left undefined. The DFS below the prefix
// resumes at branch atom start.
type task struct {
	lits     []interp.Lit
	start    int
	found    []*interp.Interp
	ords     []int // leaf ordinals within the task
	leaves   int
	finished bool // searched to its end or its own cut; set under fanOut's lock
}

// fanOut runs the search as prefix tasks on up to workers goroutines. The
// tasks list the prefix assignments in DFS order; workers take them in
// that order, and each runs the DFS below its prefix with the search's
// own MaxModels and leaf budget. Once the finished tasks at the front of
// the list hold MaxModels models or spend more than the leaf budget, the
// rest cannot reach the result and the workers stop. merge then leaves
// st exactly as the in-line DFS would have.
func (st *enumState) fanOut(workers int) {
	tasks := st.prefixTasks(workers)
	workers = min(workers, len(tasks))
	var (
		next  atomic.Int64
		stop  atomic.Bool
		nodes atomic.Int64
		mu    sync.Mutex
		front int // tasks[:front] have finished
		left  = st.opts.MaxLeaves
		want  = st.opts.MaxModels
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := *st
			ws.stop, ws.cur = &stop, st.least.Clone()
			defer func() { nodes.Add(ws.nodes) }()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				t := &tasks[i]
				if !ws.run(t) {
					stop.Store(true) // interrupted: the merge ends here
					return
				}
				mu.Lock()
				t.finished = true
				for front < len(tasks) && tasks[front].finished {
					left -= tasks[front].leaves
					want -= len(tasks[front].found)
					front++
				}
				if left < 0 || st.opts.MaxModels > 0 && want <= 0 {
					stop.Store(true)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.nodes = nodes.Load()
	st.merge(tasks)
}

// prefixTasks lists the search's prefix tasks in DFS order. Every
// assignment of the first branch atoms is a task, with enough atoms taken
// to give each worker tasksPerWorker tasks — except the all-undefined
// prefix, whose subtree no decided literal prunes: it splits again at
// every further atom, into that atom's true and false subtrees, and ends
// with the all-undefined assignment. A value the atom can never take is
// skipped, as the DFS skips it. A task holds only its decided literals,
// so the list takes O(tasks · depth) space however many atoms branch.
func (st *enumState) prefixTasks(workers int) []task {
	depth, n := 0, 1
	for depth < len(st.atoms) && n < workers*tasksPerWorker {
		depth++
		n *= 3
	}
	tasks := make([]task, 0, n+2*(len(st.atoms)-depth)+1)
	var gen func(k int, lits []interp.Lit)
	gen = func(k int, lits []interp.Lit) {
		if k == depth && len(lits) > 0 {
			tasks = append(tasks, task{lits: slices.Clone(lits), start: depth})
			return
		}
		if k == depth {
			for j := depth; j < len(st.atoms); j++ {
				a := st.atoms[j]
				if st.posP.Get(int(a)) {
					tasks = append(tasks, task{lits: []interp.Lit{interp.MkLit(a, false)}, start: j + 1})
				}
				if st.negP.Get(int(a)) {
					tasks = append(tasks, task{lits: []interp.Lit{interp.MkLit(a, true)}, start: j + 1})
				}
			}
			tasks = append(tasks, task{start: len(st.atoms)})
			return
		}
		a := st.atoms[k]
		if st.posP.Get(int(a)) {
			gen(k+1, append(lits, interp.MkLit(a, false)))
		}
		if st.negP.Get(int(a)) {
			gen(k+1, append(lits, interp.MkLit(a, true)))
		}
		gen(k+1, lits)
	}
	gen(0, make([]interp.Lit, 0, depth))
	return tasks
}

// run searches one task's subtree: it decides the prefix literals — a
// prefix the DFS would prune yields an empty task — then runs the DFS
// below them, and takes the literals back out, leaving st.cur the least
// model again. It reports whether the task finished, that is, was not
// interrupted.
func (st *enumState) run(t *task) bool {
	st.found, st.ords, st.leaves, st.overflow = nil, nil, 0, false
	added := 0
	defer func() {
		for _, l := range t.lits[:added] {
			st.cur.RemoveLit(l)
		}
	}()
	for _, l := range t.lits {
		st.cur.AddLit(l)
		added++
		if !st.opts.NoPrune && st.doomed(st.branchPos[l.Atom()]) {
			return true
		}
	}
	st.dfs(t.start)
	t.found, t.ords, t.leaves = st.found, st.ords, st.leaves
	return !st.interrupted
}

// merge concatenates the task results in task order and applies the
// search-wide cuts the tasks could not see: a model is kept only while the
// leaves spent before it, earlier tasks' included, stay within the
// budget, and the list stops at MaxModels. An unfinished task ends the
// list after its own models: the search was interrupted there.
func (st *enumState) merge(tasks []task) {
	budget := st.opts.MaxLeaves
	for i := range tasks {
		t := &tasks[i]
		for j, m := range t.found {
			if st.leaves+t.ords[j] > budget {
				st.leaves, st.overflow = budget+1, true
				return
			}
			st.found = append(st.found, m)
			if st.opts.MaxModels > 0 && len(st.found) >= st.opts.MaxModels {
				st.leaves += t.ords[j]
				return
			}
		}
		if !t.finished {
			st.leaves += t.leaves
			st.interrupted = true
			return
		}
		if st.leaves+t.leaves > budget {
			st.leaves, st.overflow = budget+1, true
			return
		}
		st.leaves += t.leaves
	}
}

// doomed applies a sound Definition 3(a) prune after deciding branch atom
// k: if some literal already in the candidate is contradicted by a rule
// that can never be blocked and never be overruled by an applied rule —
// under ANY completion of the remaining atoms — no extension survives.
// Only rules all of whose relevant atoms are decided are examined.
func (st *enumState) doomed(k int) bool {
	decided := func(a interp.AtomID) bool {
		p := st.branchPos[a]
		return p < 0 || p <= k // non-branch atoms are permanently undefined
	}
	// mayHold: can literal l be in the final model under some completion?
	mayHold := func(l interp.Lit) bool {
		if decided(l.Atom()) {
			return st.cur.HasLit(l)
		}
		if l.Neg() {
			return st.negP.Get(int(l.Atom()))
		}
		return st.posP.Get(int(l.Atom()))
	}
	v := st.v
	for r := 0; r < v.NumRules(); r++ {
		h := v.Head(r)
		if !st.cur.HasLit(h.Complement()) {
			continue
		}
		// Rule r contradicts a decided literal. Can it still be blocked?
		canBlock := false
		for _, b := range v.Body(r) {
			if mayHold(b.Complement()) {
				canBlock = true
				break
			}
		}
		if canBlock {
			continue
		}
		// Can it still be overruled by an applied rule?
		canOverrule := false
		for _, o := range v.Overrulers(r) {
			ok := true
			for _, b := range v.Body(int(o)) {
				if !mayHold(b) {
					ok = false
					break
				}
			}
			if ok {
				canOverrule = true
				break
			}
		}
		if !canOverrule {
			return true
		}
	}
	return false
}

// StableModelsCtx returns the maximal assumption-free models of the
// view's component (Definition 9), in the order AssumptionFreeModelsCtx
// found them. On ErrBudget or an interruption the maximal models of the
// truncated enumeration are returned alongside the error (maximal within
// the collected family only — the full search might have extended them).
func StableModelsCtx(ctx context.Context, v *eval.View, opts Options) ([]*interp.Interp, error) {
	all, err := AssumptionFreeModelsCtx(ctx, v, opts)
	if err != nil {
		if partialErr(err) {
			return MaximalModels(all), err
		}
		return nil, err
	}
	return MaximalModels(all), nil
}

// partialErr reports whether err is one of the sentinels that carry
// partial results (truncated rather than failed enumeration).
func partialErr(err error) bool {
	return errors.Is(err, ErrBudget) || errors.Is(err, interrupt.ErrInterrupted)
}

// MaximalModels filters a family of interpretations down to its maximal
// elements under set inclusion.
func MaximalModels(ms []*interp.Interp) []*interp.Interp {
	var out []*interp.Interp
	for i, m := range ms {
		maximal := true
		for j, o := range ms {
			if i != j && m.ProperSubsetOf(o) {
				maximal = false
				break
			}
		}
		if maximal {
			dup := false
			for _, o := range out {
				if o.Equal(m) {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, m)
			}
		}
	}
	return out
}
