// Sharded parallel smart grounding.
//
// The sequential smart pass has two embarrassingly parallel stages sitting
// between sequential bookends: the fireable pass enumerates join
// substitutions per encoded rule, and the competitor pass instantiates
// head-matched competitors per target. smartParallel runs both on n
// workers. Work is partitioned so no two workers can race on grounder
// state:
//
//   - The fireable pass is split by join shard: worker i runs every
//     encoded rule through storage.JoinSharded with shard i, which
//     enumerates exactly the substitutions whose driving-literal tuple
//     hashes (first-column term id mod n) to i. The shards partition the
//     sequential enumeration.
//   - The competitor pass is split by target: worker i handles the
//     targets at positions i, i+n, i+2n, ... of the registration order.
//
// Workers share the atom and term tables (mutex-guarded interning, see
// interp.Table and term.Table) and read-only grounder state (possible-atom
// store, shapes, factComps, head index, universe); everything mutable — emission
// counters, dedup scratch, instance buffers — lives on the per-worker
// pworker. Each retained instance lands in the buffer of its head atom's
// shard (interp.Table.ShardKey mod n, the same partition sharded
// evaluation uses). A sequential merge then folds the buffers into
// g.seen/g.rules in a deterministic order — shards ascending, workers
// ascending within a shard, emission order within a worker — so the
// retained instance SET equals the sequential pass's for every program;
// only the append order differs, which no semantics consumer observes
// (models, statuses and dumps are order-independent).
//
// Budgets: workers check MaxAtoms against the shared table as they go and
// bound total buffered instances with a shared valve at twice MaxInstances
// (local dedup cannot see cross-worker duplicates, so the pre-merge count
// over-approximates); the merge re-applies the exact MaxAtoms/MaxInstances
// checks the sequential pass enforces.
package ground

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/interrupt"
	"repro/internal/obs"
	"repro/internal/term"
	"repro/internal/unify"
)

// shardOf maps a shard key (interp.Table.ShardKey) to a shard in [0, n).
func shardOf(k term.ID, n int) int {
	s := int(k) % n
	if s < 0 {
		s += n
	}
	return s
}

// instanceKey packs a worker's local dedup key of a ground instance:
// component, head and body literals as little-endian int32s — the same
// identity instanceHash and findInstance use for the shared instance list.
func instanceKey(b []byte, comp int, head interp.Lit, body []interp.Lit) []byte {
	b = appendInt32(b, int32(comp))
	b = appendInt32(b, int32(head))
	for _, l := range body {
		b = appendInt32(b, int32(l))
	}
	return b
}

// pworker is one sharded grounding worker: a private instance sink with
// its own dedup map, dedup-key scratch and emission counter, so the shared
// grounder is never written from a worker goroutine.
type pworker struct {
	g   *grounder
	id  int
	n   int
	ctx context.Context

	out     [][]Rule        // per destination shard, in emission order
	local   map[string]bool // instances this worker already buffered
	keyBuf  []byte
	bodyBuf []interp.Lit
	emitted int
	xfer    int64         // instances buffered for a shard other than w.id
	total   *atomic.Int64 // shared pre-merge instance valve
	em      emitter       // this worker's sink, scratch substitution and counters
}

// emit is the worker-side instantiate: the same buildInstance and
// dedup-key packing, but recording into the worker's own buffers. Cross-worker duplicates are left for the merge to drop; the
// probe of g.seen still filters instances already retained before the
// parallel stage started (g.seen is read-only while workers run).
func (w *pworker) emit(comp int, r *ast.Rule, s *unify.Subst) error {
	w.emitted++
	if w.emitted%256 == 0 {
		if err := interrupt.Check(w.ctx, "ground: instance emission"); err != nil {
			return err
		}
	}
	g := w.g
	head, body, keep, err := g.buildInstance(r, s, w.bodyBuf[:0])
	w.bodyBuf = body
	if err != nil || !keep {
		return err
	}
	w.keyBuf = instanceKey(w.keyBuf[:0], comp, head, body)
	key := string(w.keyBuf)
	if w.local[key] {
		return nil
	}
	if _, dup := g.findInstance(instanceHash(comp, head, body), comp, head, body); dup {
		return nil
	}
	w.local[key] = true
	shard := shardOf(g.tab.ShardKey(head.Atom()), w.n)
	if shard != w.id {
		w.xfer++
	}
	if len(body) > 0 {
		body = append([]interp.Lit(nil), body...)
	} else {
		body = nil
	}
	w.out[shard] = append(w.out[shard], Rule{Head: head, Body: body, Comp: int32(comp), Src: r})
	if g.tab.Len() > g.opts.MaxAtoms {
		return &ErrBudget{"atom", g.opts.MaxAtoms}
	}
	if w.total.Add(1) > 2*int64(g.opts.MaxInstances)+1024 {
		return &ErrBudget{"instance", g.opts.MaxInstances}
	}
	return nil
}

// runWorkers spawns n workers, runs task on each and waits for all of
// them. The first non-nil error cancels the shared worker context so the
// others stop at their next checkpoint; a non-interrupt error (budget,
// internal) is preferred over the interrupt errors the cancellation
// induces in the rest. On success the workers' emission counts fold into
// the grounder's stride counter and the workers are returned for merging.
func (g *grounder) runWorkers(n int, task func(w *pworker) error) ([]*pworker, error) {
	wctx, cancel := context.WithCancel(g.ctx)
	defer cancel()
	workers := make([]*pworker, n)
	errs := make([]error, n)
	var total atomic.Int64
	total.Store(int64(len(g.rules)))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &pworker{
			g:     g,
			id:    i,
			n:     n,
			ctx:   wctx,
			out:   make([][]Rule, n),
			local: make(map[string]bool),
			total: &total,
		}
		w.em = emitter{emit: w.emit, s: unify.NewSubst()}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := task(w); err != nil {
				errs[w.id] = err
				cancel()
			}
		}()
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil || (interrupt.IsInterrupted(firstErr) && !interrupt.IsInterrupted(err)) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for _, w := range workers {
		g.emitted += w.emitted
	}
	return workers, nil
}

// mergeParallel folds the worker buffers into the shared instance list in
// the canonical deterministic order — shard ascending, worker ascending,
// emission order — deduping across workers, then re-applies the exact
// budget checks. Returns the number of instances retained per shard.
func (g *grounder) mergeParallel(workers []*pworker) ([]int64, error) {
	n := len(workers)
	perShard := make([]int64, n)
	for s := 0; s < n; s++ {
		for _, w := range workers {
			for i := range w.out[s] {
				r := &w.out[s][i]
				h := instanceHash(int(r.Comp), r.Head, r.Body)
				if _, dup := g.findInstance(h, int(r.Comp), r.Head, r.Body); dup {
					continue
				}
				g.appendInstance(h, *r)
				perShard[s]++
			}
		}
	}
	if g.tab.Len() > g.opts.MaxAtoms {
		return nil, &ErrBudget{"atom", g.opts.MaxAtoms}
	}
	if len(g.rules) > g.opts.MaxInstances {
		return nil, &ErrBudget{"instance", g.opts.MaxInstances}
	}
	return perShard, nil
}

// smartParallel is smart grounding with the fireable and competitor passes
// sharded over n workers. The sequential bookends — smartPrep (which also
// pins term-id assignment, making shard keys deterministic),
// registerTargets, the merges and recordMarks — are shared with smart().
func (g *grounder) smartParallel(n int) error {
	if err := g.smartPrep(); err != nil {
		return err
	}

	// Fireable pass: worker i enumerates join shard i of every encoded
	// rule body.
	fw, err := g.runWorkers(n, func(w *pworker) error {
		for _, sr := range g.dlSrc {
			if err := interrupt.Check(w.ctx, "ground: fireable pass"); err != nil {
				return err
			}
			if err := g.joinInstantiate(sr, w.id, w.n, &w.em); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fireShard, err := g.mergeParallel(fw)
	if err != nil {
		return err
	}

	// Competitor pass: worker i handles every n-th registered target.
	g.prepCompetitors()
	grown := g.registerTargets(0)
	preComp := len(g.rules)
	cw, err := g.runWorkers(n, func(w *pworker) error {
		for i := w.id; i < len(grown); i += w.n {
			if err := interrupt.Check(w.ctx, "ground: competitor pass"); err != nil {
				return err
			}
			if err := g.competitorsFor(grown[i], 0, &w.em); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, w := range cw {
		g.em.targets += w.em.targets
		g.em.candidates += w.em.candidates
	}
	compShard, err := g.mergeParallel(cw)
	if err != nil {
		return err
	}
	g.compInstances += len(g.rules) - preComp
	g.recordMarks()

	if obs.On() {
		var xfer, totalInst, maxInst int64
		for i := 0; i < n; i++ {
			inst := fireShard[i] + compShard[i]
			obs.Default().Counter(fmt.Sprintf("ground.shard.instances.%d", i)).Add(inst)
			totalInst += inst
			if inst > maxInst {
				maxInst = inst
			}
		}
		for _, w := range fw {
			xfer += w.xfer
		}
		for _, w := range cw {
			xfer += w.xfer
		}
		skew := int64(100)
		if totalInst > 0 {
			skew = maxInst * int64(n) * 100 / totalInst
		}
		mGroundShardRuns.Inc()
		mGroundShardXfer.Add(xfer)
		mGroundShardSkew.Set(skew)
	}
	return nil
}
