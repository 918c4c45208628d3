// Package nafmodels holds the brute-force and generate-and-test model
// enumerators of the classical negation-as-failure semantics the paper
// compares against: total stable models [GL1] by branch and bound and by
// the backtracking-fixpoint strategy of [SZ], Przymusinski's 3-valued
// models [P3], and the founded and 3-valued stable models of [SZ]. The
// tests check the OV/EV/3V translations of §3–§4 and the ordered engine
// against them; each works on a program ground by internal/classical, and
// none shares code with the ordered engine. Only tests and benchmark/
// import it.
package nafmodels

import (
	"errors"
	"sort"

	"repro/internal/classical"
	"repro/internal/interp"
)

// ErrBudget reports that a stable-model search exceeded its budget.
var ErrBudget = errors.New("nafmodels: search budget exceeded")

// StableOptions configures total stable model enumeration.
type StableOptions struct {
	// MaxNodes caps the DPLL nodes explored (0 = 1<<22).
	MaxNodes int
	// MaxModels stops after this many models (0 = all).
	MaxModels int
}

// StableModelsTotal enumerates the total stable models [GL1] of the ground
// program by branch and bound over the undefined atoms of the well-founded
// model: the well-founded true and false atoms belong to every stable
// model, branching assigns one undefined atom at a time, and every leaf is
// verified with the Gelfond–Lifschitz reduct condition.
func StableModelsTotal(p *classical.Program, opts StableOptions) ([]*interp.Bitset, error) {
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 1 << 22
	}
	n := p.Tab.Len()
	wf := p.WellFounded()
	fixedTrue := interp.NewBitset(n)
	fixedFalse := interp.NewBitset(n)
	var branch []interp.AtomID
	for i := 0; i < n; i++ {
		switch wf.Value(interp.AtomID(i)) {
		case interp.True:
			fixedTrue.Set(i)
		case interp.False:
			fixedFalse.Set(i)
		default:
			branch = append(branch, interp.AtomID(i))
		}
	}
	var found []*interp.Bitset
	nodes := 0
	cand := fixedTrue.Clone()
	var rec func(k int) error
	rec = func(k int) error {
		nodes++
		if nodes > opts.MaxNodes {
			return ErrBudget
		}
		if opts.MaxModels > 0 && len(found) >= opts.MaxModels {
			return nil
		}
		if k == len(branch) {
			if IsStableTotal(p, cand) {
				found = append(found, cand.Clone())
			}
			return nil
		}
		a := int(branch[k])
		cand.Set(a)
		if err := rec(k + 1); err != nil {
			return err
		}
		cand.Clear(a)
		return rec(k + 1)
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return found, nil
}

// value3 returns the three-valued truth value of an atom in a partial
// interpretation.
func value3(m *interp.Interp, a interp.AtomID) interp.Value { return m.Value(a) }

// bodyValue3 returns min over the body literals: positives take the atom's
// value, negated atoms the complement value. An empty body is True.
func bodyValue3(m *interp.Interp, r *classical.Rule) interp.Value {
	v := interp.True
	for _, a := range r.Pos {
		if w := value3(m, a); w < v {
			v = w
		}
	}
	for _, a := range r.Neg {
		w := interp.True - value3(m, a) // complement: T<->F, U fixed
		if w < v {
			v = w
		}
	}
	return v
}

// IsThreeValuedModel checks Przymusinski's condition [P3]: for every ground
// rule, value(head) >= value(body) with F < U < T.
func IsThreeValuedModel(p *classical.Program, m *interp.Interp) bool {
	for i := range p.Rules {
		r := &p.Rules[i]
		if value3(m, r.Head) < bodyValue3(m, r) {
			return false
		}
	}
	return true
}

// IsFounded checks the foundedness condition of [SZ] for a 3-valued model
// M: build the positive version C_M by deleting every non-applied rule
// (a rule is applied when its body literals are all in M and its head is
// in M) and dropping the negated literals of the remaining ones; M is
// founded iff the least model of C_M equals M⁺.
func IsFounded(p *classical.Program, m *interp.Interp) bool {
	// lfp over the applied rules' positive parts.
	derived := interp.NewBitset(p.Tab.Len())
	for changed := true; changed; {
		changed = false
		for i := range p.Rules {
			r := &p.Rules[i]
			if derived.Get(int(r.Head)) {
				continue
			}
			if !applied(m, r) {
				continue
			}
			ok := true
			for _, a := range r.Pos {
				if !derived.Get(int(a)) {
					ok = false
					break
				}
			}
			if ok {
				derived.Set(int(r.Head))
				changed = true
			}
		}
	}
	for i := 0; i < p.Tab.Len(); i++ {
		if derived.Get(i) != (m.Value(interp.AtomID(i)) == interp.True) {
			return false
		}
	}
	return true
}

// applied reports the paper's §3 notion: every body literal of r is a
// member of M (positives true, negated atoms false) and the head is in M.
func applied(m *interp.Interp, r *classical.Rule) bool {
	if m.Value(r.Head) != interp.True {
		return false
	}
	for _, a := range r.Pos {
		if m.Value(a) != interp.True {
			return false
		}
	}
	for _, a := range r.Neg {
		if m.Value(a) != interp.False {
			return false
		}
	}
	return true
}

// FoundedModels enumerates all 3-valued founded models by brute force over
// three-valued assignments — exponential, for theorem verification on
// small programs only. The budget caps the assignments examined.
func FoundedModels(p *classical.Program, maxLeaves int) ([]*interp.Interp, error) {
	if maxLeaves == 0 {
		maxLeaves = 1 << 22
	}
	n := p.Tab.Len()
	cur := interp.New(p.Tab)
	var found []*interp.Interp
	leaves := 0
	var rec func(a int) error
	rec = func(a int) error {
		if a == n {
			leaves++
			if leaves > maxLeaves {
				return ErrBudget
			}
			if IsThreeValuedModel(p, cur) && IsFounded(p, cur) {
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

// StableThreeValued returns the maximal founded models — the 3-valued
// stable models of [SZ]. Brute force; small programs only.
func StableThreeValued(p *classical.Program, maxLeaves int) ([]*interp.Interp, error) {
	founded, err := FoundedModels(p, maxLeaves)
	if err != nil {
		return nil, err
	}
	var out []*interp.Interp
	for i, m := range founded {
		maximal := true
		for j, o := range founded {
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
	return out, nil
}

// StableModelsBacktracking enumerates total stable models with the
// backtracking-fixpoint strategy of [SZ] (Saccà & Zaniolo, "Stable models
// and non-determinism for logic programs with negation"): starting from
// the deterministic consequences, repeatedly pick an unresolved negative
// "assumption" (an atom whose rules are all waiting on negated atoms),
// assume it false, propagate, and backtrack over the choice. The leaves
// are verified with the Gelfond–Lifschitz condition, so the enumeration is
// exact; the strategy differs from StableModelsTotal (which branches over
// all well-founded-undefined atoms) by propagating after every choice.
func StableModelsBacktracking(p *classical.Program, opts StableOptions) ([]*interp.Bitset, error) {
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 1 << 22
	}
	n := p.Tab.Len()
	heads := headIndex(p)
	var found []*interp.Bitset
	nodes := 0

	// Three-valued state: True/False assignments; Undef means open.
	type state struct {
		truth    *interp.Bitset
		falseSet *interp.Bitset
	}
	clone := func(s state) state {
		return state{truth: s.truth.Clone(), falseSet: s.falseSet.Clone()}
	}

	// propagate closes the state under two monotone inferences:
	//  - a rule with true positive body and false negated atoms fires;
	//  - an atom all of whose rules are dead (some positive body atom
	//    false, or some negated atom true) is false.
	// It reports consistency.
	propagate := func(s state) bool {
		for changed := true; changed; {
			changed = false
			for i := range p.Rules {
				r := &p.Rules[i]
				if s.truth.Get(int(r.Head)) {
					continue
				}
				fires := true
				for _, a := range r.Pos {
					if !s.truth.Get(int(a)) {
						fires = false
						break
					}
				}
				if fires {
					for _, a := range r.Neg {
						if !s.falseSet.Get(int(a)) {
							fires = false
							break
						}
					}
				}
				if fires {
					if s.falseSet.Get(int(r.Head)) {
						return false
					}
					s.truth.Set(int(r.Head))
					changed = true
				}
			}
			for a := 0; a < n; a++ {
				if s.truth.Get(a) || s.falseSet.Get(a) {
					continue
				}
				dead := true
				for _, ri := range heads[interp.AtomID(a)] {
					r := &p.Rules[ri]
					ruleDead := false
					for _, b := range r.Pos {
						if s.falseSet.Get(int(b)) {
							ruleDead = true
							break
						}
					}
					if !ruleDead {
						for _, b := range r.Neg {
							if s.truth.Get(int(b)) {
								ruleDead = true
								break
							}
						}
					}
					if !ruleDead {
						dead = false
						break
					}
				}
				if dead {
					s.falseSet.Set(a)
					changed = true
				}
			}
		}
		return true
	}

	var rec func(s state) error
	rec = func(s state) error {
		nodes++
		if nodes > opts.MaxNodes {
			return ErrBudget
		}
		if opts.MaxModels > 0 && len(found) >= opts.MaxModels {
			return nil
		}
		if !propagate(s) {
			return nil
		}
		// Pick an open atom; prefer one occurring under negation in a rule
		// whose positive part is already true (the [SZ] "assumption").
		choice := -1
		for i := range p.Rules {
			r := &p.Rules[i]
			ok := true
			for _, a := range r.Pos {
				if !s.truth.Get(int(a)) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, a := range r.Neg {
				if !s.truth.Get(int(a)) && !s.falseSet.Get(int(a)) {
					choice = int(a)
					break
				}
			}
			if choice >= 0 {
				break
			}
		}
		if choice < 0 {
			for a := 0; a < n; a++ {
				if !s.truth.Get(a) && !s.falseSet.Get(a) {
					choice = a
					break
				}
			}
		}
		if choice < 0 {
			// Total: verify stability.
			if IsStableTotal(p, s.truth) {
				found = append(found, s.truth.Clone())
			}
			return nil
		}
		// Assume false first (the closed-world-leaning branch), then true.
		left := clone(s)
		left.falseSet.Set(choice)
		if err := rec(left); err != nil {
			return err
		}
		right := clone(s)
		right.truth.Set(choice)
		return rec(right)
	}

	start := state{truth: interp.NewBitset(n), falseSet: interp.NewBitset(n)}
	if err := rec(start); err != nil {
		return nil, err
	}
	// Distinct branches can converge to the same model; deduplicate.
	var out []*interp.Bitset
	for _, m := range found {
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
	return out, nil
}

// IsStableTotal checks the Gelfond–Lifschitz condition: M (a total
// two-valued interpretation given by its true set) is stable iff the least
// model of the reduct P^M equals M.
func IsStableTotal(p *classical.Program, m *interp.Bitset) bool {
	return reductLFP(p, m).Equal(m)
}

// reductLFP computes the least model of the Gelfond–Lifschitz reduct P^M
// for a total candidate M given as its true-atom set, by naive iteration:
// a rule fires when its positive body is derived and none of its negated
// atoms is in M.
func reductLFP(p *classical.Program, m *interp.Bitset) *interp.Bitset {
	out := interp.NewBitset(p.Tab.Len())
	for changed := true; changed; {
		changed = false
	rules:
		for i := range p.Rules {
			r := &p.Rules[i]
			if out.Get(int(r.Head)) {
				continue
			}
			for _, a := range r.Neg {
				if m.Get(int(a)) {
					continue rules
				}
			}
			for _, a := range r.Pos {
				if !out.Get(int(a)) {
					continue rules
				}
			}
			out.Set(int(r.Head))
			changed = true
		}
	}
	return out
}

// HeadRules returns the indexes of the rules of p with head a.
func HeadRules(p *classical.Program, a interp.AtomID) []int32 {
	return headIndex(p)[a]
}

// headIndex lists, per head atom, the indexes of the rules of p with that
// head.
func headIndex(p *classical.Program) map[interp.AtomID][]int32 {
	heads := make(map[interp.AtomID][]int32)
	for i := range p.Rules {
		heads[p.Rules[i].Head] = append(heads[p.Rules[i].Head], int32(i))
	}
	return heads
}

// TrueAtoms converts a truth bitset to a sorted list of atom strings, for
// printing and tests.
func TrueAtoms(p *classical.Program, b *interp.Bitset) []string {
	var out []string
	b.Range(func(i int) bool {
		out = append(out, p.Tab.Atom(interp.AtomID(i)).String())
		return true
	})
	sort.Strings(out)
	return out
}
