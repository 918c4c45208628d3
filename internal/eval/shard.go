// Sharded parallel evaluation of the semi-naive Definition 2 fixpoint.
//
// Atoms are hash-partitioned by first-argument term id (interp.ShardKey mod
// shard count) and each rule is owned by the shard of its head atom. Because
// an atom and its complement share the shard key, every overruler/defeater/
// threat edge of the ordered semantics connects rules with complementary
// heads — i.e. rules on the same shard — so the Definition 2 bookkeeping
// (unblocked-competitor counters, block propagation, the consistency check
// on AddLit) never crosses a shard boundary. Only body satisfaction does:
// a literal derived on one shard may satisfy or block bodies anywhere, so
// workers exchange their newly derived literals in bulk-synchronous rounds
// through a coordinator that concatenates the per-shard deltas in shard
// order and broadcasts one identical batch to every worker.
//
// Correctness: V is monotone (Lemma 1), so lfp(V) is invariant under the
// schedule of counter decrements — any fair chaotic iteration converges to
// the same least fixpoint. The barrier makes the schedule deterministic on
// top of that: round k's batch is a pure function of round k-1's batch, so
// repeated runs do identical work in identical order per worker.
package eval

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/interp"
	"repro/internal/interrupt"
	"repro/internal/obs"
	"repro/internal/term"
)

const shardStage = "eval: sharded fixpoint"

// Sharding is the construct-once parallel-evaluation index of one View: the
// atom and rule partition plus per-shard CSR body-occurrence lists. Like
// the View it wraps, a built Sharding is immutable and safe for
// unsynchronised sharing; each LeastModel run allocates its own workers.
type Sharding struct {
	v *View
	n int

	atomShard  []int32   // owning shard per atom id
	ruleShard  []int32   // owning shard per visible rule (= shard of its head atom)
	shardRules [][]int32 // visible rule indexes per shard, ascending

	// Per-shard CSR body-occurrence index: occ[s][occOff[s][l]:occOff[s][l+1]]
	// lists the shard-s rules with literal l in their body, so a worker
	// walks exactly its own rules for every delta literal.
	occOff [][]int32
	occ    [][]int32
}

// shardOfKey maps a partition key to a shard. term.None (unreachable for
// interned atoms, but kept total) lands on a valid shard too.
func shardOfKey(k term.ID, n int) int32 {
	s := int32(k) % int32(n)
	if s < 0 {
		s += int32(n)
	}
	return s
}

// NewSharding builds the sharded-evaluation index of v for the given shard
// count. Counts below 2 yield a trivial index whose LeastModel methods
// delegate to the sequential engine (same code path, same allocations).
func NewSharding(v *View, shards int) *Sharding {
	n := shards
	if n < 1 {
		n = 1
	}
	sh := &Sharding{v: v, n: n}
	if n == 1 {
		return sh
	}
	nAtoms := v.NumAtoms()
	sh.atomShard = make([]int32, nAtoms)
	for id := 0; id < nAtoms; id++ {
		sh.atomShard[id] = shardOfKey(v.G.Tab.ShardKey(interp.AtomID(id)), n)
	}
	nr := len(v.heads)
	sh.ruleShard = make([]int32, nr)
	sh.shardRules = make([][]int32, n)
	for r := 0; r < nr; r++ {
		s := sh.atomShard[v.heads[r].Atom()]
		sh.ruleShard[r] = s
		sh.shardRules[s] = append(sh.shardRules[s], int32(r))
	}
	nLits := 2 * nAtoms
	sh.occOff = make([][]int32, n)
	sh.occ = make([][]int32, n)
	for s := 0; s < n; s++ {
		sh.occOff[s] = make([]int32, nLits+1)
	}
	for l := 0; l < nLits; l++ {
		for _, r := range v.bodyOcc(interp.Lit(l)) {
			sh.occOff[sh.ruleShard[r]][l+1]++
		}
	}
	for s := 0; s < n; s++ {
		off := sh.occOff[s]
		for l := 0; l < nLits; l++ {
			off[l+1] += off[l]
		}
		sh.occ[s] = make([]int32, off[nLits])
	}
	// Fill: literals ascending, so each shard's segment for literal l is
	// written contiguously and the cursor restarts from occOff[s][l].
	cursor := make([]int32, n)
	for l := 0; l < nLits; l++ {
		for s := 0; s < n; s++ {
			cursor[s] = sh.occOff[s][l]
		}
		for _, r := range v.bodyOcc(interp.Lit(l)) {
			s := sh.ruleShard[r]
			sh.occ[s][cursor[s]] = r
			cursor[s]++
		}
	}
	return sh
}

// Shards returns the shard count (1 = sequential delegation).
func (sh *Sharding) Shards() int { return sh.n }

// View returns the view the sharding indexes.
func (sh *Sharding) View() *View { return sh.v }

// AtomShard returns the owning shard of an atom id (only valid for shard
// counts above 1).
func (sh *Sharding) AtomShard(id interp.AtomID) int { return int(sh.atomShard[id]) }

// RuleShard returns the owning shard of a visible rule (only valid for
// shard counts above 1).
func (sh *Sharding) RuleShard(r int) int { return int(sh.ruleShard[r]) }

// shardOcc lists the shard-s rules with literal l in their body.
func (sh *Sharding) shardOcc(s int, l interp.Lit) []int32 {
	return sh.occ[s][sh.occOff[s][int(l)]:sh.occOff[s][int(l)+1]]
}

// LeastModel computes lfp(V) with the sharded workers (Shards() == 1
// delegates to the sequential semi-naive engine).
func (sh *Sharding) LeastModel() (*interp.Interp, error) {
	return sh.LeastModelCtx(context.Background())
}

// LeastModelCtx is LeastModel with cooperative cancellation: every worker
// polls the context on the sequential engine's checkStride, so a cancelled
// or expired context stops the round, joins all workers and returns an
// interrupt.Error with no partial interpretation and no leaked goroutines.
func (sh *Sharding) LeastModelCtx(ctx context.Context) (*interp.Interp, error) {
	if sh.n <= 1 {
		return sh.v.leastModel(ctx, nil, nil)
	}
	return sh.leastModelParallel(ctx, nil)
}

// LeastModelStats is LeastModel with the run's FixpointStats (summed over
// workers for shard counts above 1).
func (sh *Sharding) LeastModelStats() (*interp.Interp, FixpointStats, error) {
	var st FixpointStats
	var in *interp.Interp
	var err error
	if sh.n <= 1 {
		in, err = sh.v.leastModel(context.Background(), nil, &st)
	} else {
		in, err = sh.leastModelParallel(context.Background(), &st)
	}
	return in, st, err
}

// shardWorker is the per-shard state of one parallel run. Counter and flag
// arrays are sized over all visible rules (per-worker memory is the price
// of lock-free indexing by global rule id) but only the owned indexes are
// ever touched; the interpretation holds only owned atoms, so the final
// union across workers is consistent by construction.
type shardWorker struct {
	sh    *Sharding
	id    int
	track bool

	unsat, unblocked  []int32
	blocked, fired    []bool
	nbOver, nbDef     []int32
	satBlocked        []int32
	liveOver, liveDef int

	in    *interp.Interp
	queue []interp.Lit // owned heads, derived by this worker
	head  int          // queue drain cursor
	sent  int          // queue prefix already handed to the coordinator

	pops    int64 // owned literals processed (sums to the sequential pop count)
	foreign int64 // non-owned batch literals processed
	st      FixpointStats
}

func (w *shardWorker) fire(r int) error {
	if w.fired[r] {
		return nil
	}
	w.fired[r] = true
	w.st.Fired++
	h := w.sh.v.heads[r]
	if w.in.HasLit(h) {
		return nil
	}
	if !w.in.AddLit(h) {
		// Both literals of the pair are owned here (same atom, same shard),
		// so the check is exactly the sequential engine's.
		return fmt.Errorf("eval: least-model fixpoint derived inconsistent pair on %s", w.sh.v.G.Tab.LitString(h))
	}
	w.st.Derived++
	w.queue = append(w.queue, h)
	return nil
}

// processLit applies one delta literal to the worker's owned rules: body
// satisfaction on the literal, blocking (plus threat release and the
// Definition 2 status bookkeeping) on its complement. All rule indexes
// reached here are owned by construction of the per-shard occurrence lists
// and the intra-shard threat invariant.
func (w *shardWorker) processLit(lit interp.Lit) error {
	v, sh := w.sh.v, w.sh
	for _, r := range sh.shardOcc(w.id, lit) {
		w.unsat[r]--
		if w.unsat[r] == 0 {
			if w.unblocked[r] == 0 {
				if err := w.fire(int(r)); err != nil {
					return err
				}
			} else if w.track {
				w.satBlocked = append(w.satBlocked, r)
			}
		}
	}
	for _, r := range sh.shardOcc(w.id, lit.Complement()) {
		if w.blocked[r] {
			continue
		}
		w.blocked[r] = true
		w.st.BlockEvents++
		if w.track {
			for _, s := range v.threatOver[r] {
				if w.nbOver[s]--; w.nbOver[s] == 0 {
					w.liveOver--
				}
			}
			for _, s := range v.threatDef[r] {
				if w.nbDef[s]--; w.nbDef[s] == 0 {
					w.liveDef--
				}
			}
		}
		for _, s := range v.threatened[r] {
			w.unblocked[s]--
			if w.unsat[s] == 0 && w.unblocked[s] == 0 {
				if err := w.fire(int(s)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// drain processes the worker's own queue to quiescence — every owned
// literal is popped exactly once, here and only here, which is what makes
// the per-shard pop counters sum to the sequential total — and returns the
// literals derived since the last hand-off as the round's outbox.
func (w *shardWorker) drain(ctx context.Context) ([]interp.Lit, error) {
	for w.head < len(w.queue) {
		w.pops++
		if w.pops%checkStride == 0 {
			if err := interrupt.Check(ctx, shardStage); err != nil {
				return nil, err
			}
		}
		lit := w.queue[w.head]
		w.head++
		if err := w.processLit(lit); err != nil {
			return nil, err
		}
	}
	out := w.queue[w.sent:]
	w.sent = len(w.queue)
	return out, nil
}

// round0 initialises the owned counters, fires the owned rules that start
// applicable and unthreatened, and drains.
func (w *shardWorker) round0(ctx context.Context) ([]interp.Lit, error) {
	if err := interrupt.Check(ctx, shardStage); err != nil {
		return nil, err
	}
	v := w.sh.v
	n := len(v.heads)
	counters := make([]int32, 2*n)
	w.unsat, w.unblocked = counters[:n], counters[n:]
	flags := make([]bool, 2*n)
	w.blocked, w.fired = flags[:n], flags[n:]
	w.in = v.NewInterp()
	mine := w.sh.shardRules[w.id]
	w.queue = make([]interp.Lit, 0, len(mine))
	if w.track {
		kind := make([]int32, 2*n)
		w.nbOver, w.nbDef = kind[:n], kind[n:]
	}
	for _, r := range mine {
		w.unsat[r] = int32(len(v.bodies[r]))
		w.unblocked[r] = int32(len(v.overrulers[r]) + len(v.defeaters[r]))
		if w.track {
			w.nbOver[r] = v.overInit[r]
			w.nbDef[r] = v.defInit[r]
			if w.nbOver[r] > 0 {
				w.liveOver++
			}
			if w.nbDef[r] > 0 {
				w.liveDef++
			}
		}
	}
	for _, r := range mine {
		if w.unsat[r] == 0 && w.unblocked[r] == 0 {
			if err := w.fire(int(r)); err != nil {
				return nil, err
			}
		} else if w.track && w.unsat[r] == 0 {
			w.satBlocked = append(w.satBlocked, r)
		}
	}
	return w.drain(ctx)
}

// round applies one broadcast batch — skipping the worker's own literals,
// which drain already processed — and drains the fallout.
func (w *shardWorker) round(ctx context.Context, batch []interp.Lit) ([]interp.Lit, error) {
	for i, lit := range batch {
		if i%checkStride == checkStride-1 {
			if err := interrupt.Check(ctx, shardStage); err != nil {
				return nil, err
			}
		}
		if w.sh.atomShard[lit.Atom()] == int32(w.id) {
			continue
		}
		w.foreign++
		if err := w.processLit(lit); err != nil {
			return nil, err
		}
	}
	return w.drain(ctx)
}

// roundResult is one worker's barrier hand-off: the literals it derived
// this round, or the error that stopped it.
type roundResult struct {
	shard int
	delta []interp.Lit
	err   error
}

func (sh *Sharding) leastModelParallel(ctx context.Context, stats *FixpointStats) (*interp.Interp, error) {
	if err := interrupt.Check(ctx, shardStage); err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := sh.n
	track := obs.On()
	workers := make([]*shardWorker, n)
	inboxes := make([]chan []interp.Lit, n)
	// results is sized so a worker's send never blocks: at most one result
	// per worker is outstanding per round.
	results := make(chan roundResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		workers[i] = &shardWorker{sh: sh, id: i, track: track}
		inboxes[i] = make(chan []interp.Lit, 1)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(w *shardWorker, inbox <-chan []interp.Lit) {
			defer wg.Done()
			delta, err := w.round0(runCtx)
			results <- roundResult{shard: w.id, delta: delta, err: err}
			if err != nil {
				return
			}
			for b := range inbox {
				delta, err := w.round(runCtx, b)
				results <- roundResult{shard: w.id, delta: delta, err: err}
				if err != nil {
					return
				}
			}
		}(workers[i], inboxes[i])
	}
	// shutdown ends the round loop for every still-live worker (an erred
	// worker has already returned; closing its unread inbox is harmless)
	// and joins them all, so no goroutine outlives this call.
	shutdown := func() {
		for _, ch := range inboxes {
			close(ch)
		}
		wg.Wait()
	}

	deltas := make([][]interp.Lit, n)
	rounds, xfer := int64(0), int64(0)
	for {
		// Barrier: exactly one result per worker per round, errors included.
		var firstErr error
		for i := 0; i < n; i++ {
			r := <-results
			if r.err != nil && firstErr == nil {
				firstErr = r.err
				cancel() // stop the surviving workers at their next checkpoint
			}
			deltas[r.shard] = r.delta
		}
		if firstErr != nil {
			shutdown()
			// No partial interpretation: a truncated prefix of lfp(V) is
			// not a model of anything (same contract as LeastModelCtx).
			return nil, firstErr
		}
		rounds++
		total := 0
		for _, d := range deltas {
			total += len(d)
		}
		if total == 0 {
			break
		}
		// Concatenate in shard order: every worker receives one identical,
		// deterministic batch, so the next round's work is schedule-free.
		batch := make([]interp.Lit, 0, total)
		for _, d := range deltas {
			batch = append(batch, d...)
		}
		xfer += int64(total) * int64(n-1)
		for _, ch := range inboxes {
			ch <- batch
		}
	}
	shutdown()

	out := sh.v.NewInterp()
	var st FixpointStats
	pops := int64(0)
	for _, w := range workers {
		if !out.UnionWith(w.in) {
			// Unreachable: workers own disjoint atom sets and are internally
			// consistent; kept as a structural invariant check.
			return nil, fmt.Errorf("eval: sharded fixpoint merged inconsistent shard interpretations")
		}
		st.Fired += w.st.Fired
		st.Derived += w.st.Derived
		st.BlockEvents += w.st.BlockEvents
		pops += w.pops
	}
	if stats != nil {
		*stats = st
	}
	if track {
		applied := int64(st.Fired)
		liveOver, liveDef := int64(0), int64(0)
		maxPops := int64(0)
		for _, w := range workers {
			liveOver += int64(w.liveOver)
			liveDef += int64(w.liveDef)
			for _, r := range w.satBlocked {
				if !w.fired[r] && w.in.HasLit(sh.v.heads[r]) {
					applied++
				}
			}
			if w.pops > maxPops {
				maxPops = w.pops
			}
			obs.Default().Counter(fmt.Sprintf("eval.shard.pops.%d", w.id)).Add(w.pops)
			obs.Default().Counter(fmt.Sprintf("eval.shard.fired.%d", w.id)).Add(int64(w.st.Fired))
			obs.Default().Counter(fmt.Sprintf("eval.shard.derived.%d", w.id)).Add(int64(w.st.Derived))
		}
		skew := int64(100)
		if pops > 0 {
			skew = maxPops * int64(n) * 100 / pops
		}
		mShardSkew.Set(skew)
		mShardRuns.Inc()
		mShardRounds.Add(rounds)
		mShardXfer.Add(xfer)
		mFixpoints.Inc()
		mFixpointOps.Add(pops)
		mFired.Add(int64(st.Fired))
		mDerived.Add(int64(st.Derived))
		mBlockEvents.Add(int64(st.BlockEvents))
		mRulesApplied.Add(applied)
		mRulesBlocked.Add(int64(st.BlockEvents))
		mRulesOverruled.Add(liveOver)
		mRulesDefeated.Add(liveDef)
	}
	return out, nil
}
