// Package naive holds the brute-force oracles the evaluation engine is
// checked against: lfp(V) and its stages by iterating Definition 4's V
// from the empty interpretation, lfp(T) by sweeping the rules round-robin,
// Definition 7's assumption-free test by searching for an assumption set,
// and the exhaustive enumeration of every model of Definition 3. Each is exponential or quadratic where the engine is
// linear, and each is written from the paper's definitions rather than
// from the engine's worklists. Only tests and benchmark/ import it.
package naive

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/interrupt"
)

// ErrBudget reports that an enumeration examined more assignments than
// its budget allows.
var ErrBudget = errors.New("naive: search budget exceeded")

var errNotModel = errors.New("naive: interpretation is not a model")

// NewViewByName builds the view from the named component.
func NewViewByName(g *ground.Program, name string) (*eval.View, error) {
	i, ok := g.Src.ComponentIndex(name)
	if !ok {
		return nil, fmt.Errorf("naive: unknown component %q", name)
	}
	return eval.NewView(g, i), nil
}

// VOnce applies the ordered immediate transformation V once (Definition 4):
// it returns the set of head literals of rules that are applicable and
// neither overruled nor defeated w.r.t. in. The result is a fresh
// interpretation; an inconsistent result (possible only for interpretations
// that are not reachable from ∅) is reported as an error.
func VOnce(v *eval.View, in *interp.Interp) (*interp.Interp, error) {
	out := v.NewInterp()
	for r := 0; r < v.NumRules(); r++ {
		if !v.Applicable(r, in) || v.Overruled(r, in) || v.Defeated(r, in) {
			continue
		}
		if !out.AddLit(v.Head(r)) {
			return nil, fmt.Errorf("naive: V produced inconsistent pair on %s", v.G.Tab.LitString(v.Head(r)))
		}
	}
	return out, nil
}

// LeastModelNaiveCtx computes lfp(V) by iterating VOnce from the empty
// interpretation, with a cancellation checkpoint per round. It is the
// reference the semi-naive eval.View.LeastModelCtx is checked against.
func LeastModelNaiveCtx(ctx context.Context, v *eval.View) (*interp.Interp, error) {
	in, _, err := StagesNaiveCtx(ctx, v)
	return in, err
}

// StagesNaiveCtx iterates VOnce from ∅ to lfp(V) and returns the fixpoint
// with each member literal's stage: the round, from 1, at which it first
// appears. It is the reference eval.View.StagesCtx is checked against.
func StagesNaiveCtx(ctx context.Context, v *eval.View) (*interp.Interp, map[interp.Lit]int32, error) {
	stages := make(map[interp.Lit]int32)
	in := v.NewInterp()
	for round := int32(1); ; round++ {
		if err := interrupt.Check(ctx, "naive: fixpoint round"); err != nil {
			return nil, nil, err
		}
		next, err := VOnce(v, in)
		if err != nil {
			return nil, nil, err
		}
		// V is monotone (Lemma 1), so iterating from ∅ the stages grow;
		// union keeps the code robust even on a non-inflationary step.
		if next.SubsetOf(in) {
			return in, stages, nil
		}
		for _, l := range next.Lits() {
			if !in.HasLit(l) {
				stages[l] = round
			}
		}
		if !next.UnionWith(in) {
			return nil, nil, fmt.Errorf("naive: inconsistent V stage")
		}
		in = next
	}
}

// TClosure computes lfp(T) over m's applied rules, or over every visible
// rule when m is nil, by sweeping the rules in order until a sweep derives
// nothing; the two signs are kept apart, as eval.View.Possible keeps them.
// It is the reference TEnabled and Possible are checked against.
func TClosure(v *eval.View, m *interp.Interp) (pos, neg *interp.Bitset) {
	n := v.NumAtoms()
	pos, neg = interp.NewBitset(n), interp.NewBitset(n)
	has := func(l interp.Lit) bool {
		if l.Neg() {
			return neg.Get(int(l.Atom()))
		}
		return pos.Get(int(l.Atom()))
	}
	for changed := true; changed; {
		changed = false
		for r := 0; r < v.NumRules(); r++ {
			if has(v.Head(r)) || m != nil && !v.Applied(r, m) {
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
				if h := v.Head(r); h.Neg() {
					neg.Set(int(h.Atom()))
				} else {
					pos.Set(int(h.Atom()))
				}
				changed = true
			}
		}
	}
	return pos, neg
}

// IsAssumptionFreeDirect checks Definition 7 directly: m is a model and no
// subset of m is an assumption set w.r.t. m.
func IsAssumptionFreeDirect(v *eval.View, m *interp.Interp) bool {
	return v.IsModel(m) && FindAssumptionSet(v, m) == nil
}

// FindAssumptionSet returns a non-empty assumption set X ⊆ m w.r.t. m
// (Definition 6), or nil if none exists. X is an assumption set when for
// each literal A in X every rule with head A is non-applicable, overruled,
// defeated, or depends on X through its body.
//
// The largest candidate is computed as a greatest fixpoint: start from all
// of m and repeatedly discard literals that have a *supporting* rule — one
// that is applicable, neither overruled nor defeated, and whose body avoids
// the remaining candidate set. Any non-empty remainder is the largest
// assumption set; if the remainder is empty no subset of m is one.
func FindAssumptionSet(v *eval.View, m *interp.Interp) []interp.Lit {
	x := make(map[interp.Lit]bool)
	for _, l := range m.Lits() {
		x[l] = true
	}
	// Precompute per-rule firing eligibility (independent of X).
	eligible := make([]bool, v.NumRules())
	for r := range eligible {
		eligible[r] = v.Applicable(r, m) && !v.Overruled(r, m) && !v.Defeated(r, m)
	}
	for changed := true; changed; {
		changed = false
		for l := range x {
			supported := false
			for _, r := range v.HeadRules(l) {
				if !eligible[r] {
					continue
				}
				dep := false
				for _, b := range v.Body(int(r)) {
					if x[b] {
						dep = true
						break
					}
				}
				if !dep {
					supported = true
					break
				}
			}
			if supported {
				delete(x, l)
				changed = true
			}
		}
	}
	if len(x) == 0 {
		return nil
	}
	out := make([]interp.Lit, 0, len(x))
	for l := range x {
		out = append(out, l)
	}
	return out
}

// AllModels enumerates every model of Definition 3 for the view's
// component by brute force over all three-valued assignments of the atom
// table. It is exponential and intended for theorem verification on small
// programs (for example, checking Theorem 1(b): the least model is the
// intersection of all models). The budget caps the assignments examined.
func AllModels(v *eval.View, maxLeaves int) ([]*interp.Interp, error) {
	if maxLeaves == 0 {
		maxLeaves = 1 << 22
	}
	n := v.NumAtoms()
	cur := v.NewInterp()
	var found []*interp.Interp
	leaves := 0
	var rec func(a int) error
	rec = func(a int) error {
		if a == n {
			leaves++
			if leaves > maxLeaves {
				return ErrBudget
			}
			if v.IsModel(cur) {
				found = append(found, cur.Clone())
			}
			return nil
		}
		id := interp.AtomID(a)
		cur.AddLit(interp.MkLit(id, false))
		if err := rec(a + 1); err != nil {
			return err
		}
		cur.RemoveLit(interp.MkLit(id, false))
		cur.AddLit(interp.MkLit(id, true))
		if err := rec(a + 1); err != nil {
			return err
		}
		cur.RemoveLit(interp.MkLit(id, true))
		return rec(a + 1)
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return found, nil
}

// ExtendToExhaustive finds an exhaustive model extending m (Proposition 2:
// every model is a subset of an exhaustive one): a model with no proper
// model superset. It searches additions of undefined literals depth-first,
// preferring larger extensions, and verifies maximality exactly. The
// budget caps the candidate models examined; exceeding it returns
// ErrBudget.
func ExtendToExhaustive(v *eval.View, m *interp.Interp, maxLeaves int) (*interp.Interp, error) {
	if maxLeaves == 0 {
		maxLeaves = 1 << 20
	}
	undef := m.Undefined()
	best := m.Clone()
	if !v.IsModel(best) {
		return nil, errNotModel
	}
	leaves := 0
	cur := m.Clone()
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(undef) {
			leaves++
			if leaves > maxLeaves {
				return ErrBudget
			}
			if cur.Len() > best.Len() && v.IsModel(cur) {
				best.CopyFrom(cur)
			}
			return nil
		}
		id := undef[i]
		cur.AddLit(interp.MkLit(id, false))
		if err := rec(i + 1); err != nil {
			return err
		}
		cur.RemoveLit(interp.MkLit(id, false))
		cur.AddLit(interp.MkLit(id, true))
		if err := rec(i + 1); err != nil {
			return err
		}
		cur.RemoveLit(interp.MkLit(id, true))
		return rec(i + 1)
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return best, nil
}

// IsExhaustive reports whether m is an exhaustive model: a model with no
// proper model superset (Definition 5). Exponential in the number of
// undefined atoms; intended for small programs.
func IsExhaustive(v *eval.View, m *interp.Interp, maxLeaves int) (bool, error) {
	if !v.IsModel(m) {
		return false, errNotModel
	}
	if maxLeaves == 0 {
		maxLeaves = 1 << 20
	}
	undef := m.Undefined()
	leaves := 0
	cur := m.Clone()
	extendable := false
	var rec func(i int, added bool) error
	rec = func(i int, added bool) error {
		if extendable {
			return nil
		}
		if i == len(undef) {
			leaves++
			if leaves > maxLeaves {
				return ErrBudget
			}
			if added && v.IsModel(cur) {
				extendable = true
			}
			return nil
		}
		id := undef[i]
		cur.AddLit(interp.MkLit(id, false))
		if err := rec(i+1, true); err != nil {
			return err
		}
		cur.RemoveLit(interp.MkLit(id, false))
		cur.AddLit(interp.MkLit(id, true))
		if err := rec(i+1, true); err != nil {
			return err
		}
		cur.RemoveLit(interp.MkLit(id, true))
		return rec(i+1, added)
	}
	if err := rec(0, false); err != nil {
		return false, err
	}
	return !extendable, nil
}
