package stable

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/interp"
	"repro/internal/interrupt"
)

// ParallelOptions extends Options with a worker count for the three-valued
// search. The search space is split on the first branch atoms: every
// assignment of the prefix becomes an independent subtree evaluated by a
// worker pool. Results and leaf budgets are shared.
type ParallelOptions struct {
	Options
	// Workers is the number of goroutines (0 = GOMAXPROCS).
	Workers int
}

// AssumptionFreeModelsParallel enumerates assumption-free models with a
// worker pool. It returns the same family as AssumptionFreeModels (order
// may differ). MaxModels is treated as a lower bound on the collected
// models rather than an exact cut-off, since subtrees race; once the
// shared count reaches it, workers stop taking subtrees.
func AssumptionFreeModelsParallel(v *eval.View, opts ParallelOptions) ([]*interp.Interp, error) {
	return AssumptionFreeModelsParallelCtx(context.Background(), v, opts)
}

// AssumptionFreeModelsParallelCtx is AssumptionFreeModelsParallel with
// cooperative cancellation: workers poll the context per subtree and per
// DFS node and stop on cancellation, returning the models collected so
// far alongside an interrupt.Error — identical partial-result semantics
// to the sequential enumeration (and to ErrBudget).
func AssumptionFreeModelsParallelCtx(ctx context.Context, v *eval.View, opts ParallelOptions) ([]*interp.Interp, error) {
	opts.Options.fill()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return AssumptionFreeModelsCtx(ctx, v, opts.Options)
	}
	least, err := v.LeastModelCtx(ctx)
	if err != nil {
		return nil, err
	}
	posP, negP := possible(v)
	base := &enumState{v: v, opts: opts.Options, least: least, posP: posP, negP: negP}
	base.branchPos = make([]int, v.NumAtoms())
	for i := range base.branchPos {
		base.branchPos[i] = -1
	}
	for i := 0; i < v.NumAtoms(); i++ {
		id := interp.AtomID(i)
		if least.Value(id) != interp.Undef {
			continue
		}
		if posP.Get(i) || negP.Get(i) {
			base.branchPos[i] = len(base.atoms)
			base.atoms = append(base.atoms, id)
		}
	}

	// Choose a prefix depth giving at least ~4 tasks per worker.
	prefix := 0
	tasks := 1
	for prefix < len(base.atoms) && tasks < workers*4 {
		prefix++
		tasks *= 3
	}

	type task struct {
		assign []int8 // 0 = undef, 1 = true, 2 = false, per prefix atom
	}
	taskCh := make(chan task, tasks)
	// Generate every prefix assignment (invalid sign choices are skipped
	// inside the worker via the posP/negP check, mirroring the sequential
	// branch conditions). The channel buffer holds every assignment, so
	// the generator never blocks and cannot leak when workers bail early.
	var gen func(k int, cur []int8)
	gen = func(k int, cur []int8) {
		if k == prefix {
			t := task{assign: append([]int8(nil), cur...)}
			taskCh <- t
			return
		}
		a := base.atoms[k]
		if posP.Get(int(a)) {
			gen(k+1, append(cur, 1))
		}
		if negP.Get(int(a)) {
			gen(k+1, append(cur, 2))
		}
		gen(k+1, append(cur, 0))
	}
	go func() {
		gen(0, nil)
		close(taskCh)
	}()

	var (
		mu          sync.Mutex
		found       []*interp.Interp
		foundN      atomic.Int64 // shared found-count for the MaxModels stop
		leaves      atomic.Int64
		nodesTotal  atomic.Int64 // nodes expanded across workers, for metrics
		overflow    atomic.Bool
		interrupted atomic.Bool
		wg          sync.WaitGroup
	)
	ctxDone := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &enumState{
				v: v, opts: opts.Options, least: least,
				posP: posP, negP: negP,
				atoms: base.atoms, branchPos: base.branchPos,
				ctxDone: ctxDone,
			}
			defer func() { nodesTotal.Add(st.nodes) }()
			// Replace the per-state leaf counter with the shared one by
			// sizing the local budget from the global remainder at leaf
			// boundaries: simplest is to run subtree DFS with a local
			// state and periodically publish.
			for tk := range taskCh {
				if overflow.Load() || interrupted.Load() {
					return
				}
				// Satisfied runs stop early: once the shared count reaches
				// MaxModels, no further subtree is started (the final slice
				// may still overshoot — the documented lower-bound
				// semantics — because racing subtrees publish in bulk).
				if opts.MaxModels > 0 && foundN.Load() >= int64(opts.MaxModels) {
					return
				}
				select {
				case <-ctxDone:
					interrupted.Store(true)
					return
				default:
				}
				st.cur = least.Clone()
				ok := true
				for k, bits := range tk.assign {
					a := st.atoms[k]
					switch bits {
					case 1:
						st.cur.AddLit(interp.MkLit(a, false))
					case 2:
						st.cur.AddLit(interp.MkLit(a, true))
					}
					if bits != 0 && !opts.NoPrune && st.doomed(k) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				st.found = st.found[:0]
				st.leaves = 0
				st.overflow = false
				st.interrupted = false
				st.dfs(prefix)
				if int(leaves.Add(int64(st.leaves))) > opts.MaxLeaves || st.overflow {
					overflow.Store(true)
				}
				if st.interrupted {
					interrupted.Store(true)
				}
				if len(st.found) > 0 {
					foundN.Add(int64(len(st.found)))
					mu.Lock()
					found = append(found, st.found...)
					st.found = nil
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	flushSearch(nodesTotal.Load(), leaves.Load(), foundN.Load(), overflow.Load())
	if interrupted.Load() {
		return found, interrupt.Check(ctx, "stable: parallel three-valued DFS")
	}
	if overflow.Load() {
		return found, ErrBudget
	}
	return found, nil
}

// StableModelsParallel returns the maximal assumption-free models using
// the parallel enumeration. On ErrBudget the maximal models of the
// truncated enumeration are returned alongside the error — the same
// partial-result contract as the sequential StableModels.
func StableModelsParallel(v *eval.View, opts ParallelOptions) ([]*interp.Interp, error) {
	return StableModelsParallelCtx(context.Background(), v, opts)
}

// StableModelsParallelCtx is StableModelsParallel with cooperative
// cancellation; see AssumptionFreeModelsParallelCtx for the checkpoint
// and partial-result contract.
func StableModelsParallelCtx(ctx context.Context, v *eval.View, opts ParallelOptions) ([]*interp.Interp, error) {
	all, err := AssumptionFreeModelsParallelCtx(ctx, v, opts)
	if err != nil {
		if partialErr(err) {
			return MaximalModels(all), err
		}
		return nil, err
	}
	return MaximalModels(all), nil
}
