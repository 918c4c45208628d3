// Package stable enumerates assumption-free and stable models of ordered
// programs (Definitions 7 and 9): a stable model is a maximal
// assumption-free model. The enumeration is exact: it branches three-valued
// (true/false/undefined) over the contested atoms only — atoms outside the
// least model whose literals are derivable at all — with sound pruning, and
// verifies each leaf with the Theorem 1(a) check.
package stable

import (
	"context"
	"errors"

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

// possible computes lfp(T) over all visible rules, ignoring overruling and
// defeating and tracking the two signs independently: a literal outside the
// result can belong to no assumption-free model (its enabled version could
// never derive it).
func possible(v *eval.View) (pos, neg *interp.Bitset) {
	n := v.NumAtoms()
	pos, neg = interp.NewBitset(n), interp.NewBitset(n)
	has := func(l interp.Lit) bool {
		if l.Neg() {
			return neg.Get(int(l.Atom()))
		}
		return pos.Get(int(l.Atom()))
	}
	set := func(l interp.Lit) {
		if l.Neg() {
			neg.Set(int(l.Atom()))
		} else {
			pos.Set(int(l.Atom()))
		}
	}
	for changed := true; changed; {
		changed = false
		for r := 0; r < v.NumRules(); r++ {
			if has(v.Head(r)) {
				continue
			}
			ok := true
			for _, b := range v.Body(r) {
				if !has(b) {
					ok = false
					break
				}
			}
			if ok {
				set(v.Head(r))
				changed = true
			}
		}
	}
	return pos, neg
}

// enumState drives the three-valued DFS.
type enumState struct {
	v         *eval.View
	opts      Options
	least     *interp.Interp
	posP      *interp.Bitset // literals derivable at all
	negP      *interp.Bitset
	atoms     []interp.AtomID // branch atoms in ascending id order
	branchPos []int           // atom id -> index in atoms, or -1
	cur       *interp.Interp
	leaves    int
	nodes     int64 // DFS nodes expanded, flushed to metrics at the end
	found     []*interp.Interp
	overflow  bool
	// ctxDone is the enumeration context's Done channel (nil when the
	// search is unbounded); dfs polls it at every node — the checkpoint
	// interval of the cancellation contract — and raises interrupted.
	ctxDone     <-chan struct{}
	interrupted bool
}

// AssumptionFreeModels enumerates the assumption-free models of the view's
// component. The least model is always among them (Theorem 1).
func AssumptionFreeModels(v *eval.View, opts Options) ([]*interp.Interp, error) {
	return AssumptionFreeModelsCtx(context.Background(), v, opts)
}

// AssumptionFreeModelsCtx is AssumptionFreeModels with cooperative
// cancellation: the DFS polls the context at every node, so a cancelled or
// expired context stops the search within one checkpoint interval and
// returns the models found so far alongside an interrupt.Error — the same
// partial-result contract as ErrBudget.
func AssumptionFreeModelsCtx(ctx context.Context, v *eval.View, opts Options) ([]*interp.Interp, error) {
	opts.fill()
	least, err := v.LeastModelCtx(ctx)
	if err != nil {
		return nil, err
	}
	posP, negP := possible(v)
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
	st.cur = least.Clone()
	st.dfs(0)
	flushSearch(st.nodes, int64(st.leaves), int64(len(st.found)), st.overflow)
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

func (st *enumState) dfs(k int) {
	st.nodes++
	if st.ctxDone != nil && !st.interrupted {
		select {
		case <-st.ctxDone:
			st.interrupted = true
		default:
		}
	}
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

// StableModels returns the maximal assumption-free models of the view's
// component (Definition 9). On ErrBudget the maximal models of the
// truncated enumeration are returned alongside the error (maximal within
// the collected family only — the full search might have extended them).
func StableModels(v *eval.View, opts Options) ([]*interp.Interp, error) {
	return StableModelsCtx(context.Background(), v, opts)
}

// StableModelsCtx is StableModels with cooperative cancellation; see
// AssumptionFreeModelsCtx for the checkpoint and partial-result contract.
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
