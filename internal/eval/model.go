package eval

import (
	"repro/internal/interp"
)

// IsModel checks the two conditions of Definition 3 for m in the view's
// component:
//
//	(a) for each literal A ∈ M, every rule with head ¬A is blocked or
//	    overruled by an applied rule;
//	(b) for each undefined atom, every applicable rule deriving either
//	    sign of it is overruled or defeated.
func (v *View) IsModel(m *interp.Interp) bool {
	violation, _ := v.ModelViolation(m)
	return !violation
}

// ModelViolation reports whether m violates Definition 3 and, if so, a
// human-readable reason naming the offending rule.
func (v *View) ModelViolation(m *interp.Interp) (bool, string) {
	if !m.Consistent() {
		return true, "interpretation is inconsistent"
	}
	// Condition (a): iterate rules whose head's complement is in M.
	for r := 0; r < len(v.heads); r++ {
		if !m.HasLit(v.heads[r].Complement()) {
			continue
		}
		if v.Blocked(r, m) || v.OverruledByApplied(r, m) {
			continue
		}
		return true, "condition (a): rule " + v.G.RuleString(v.srcs[r]) +
			" contradicts " + v.G.Tab.LitString(v.heads[r].Complement()) +
			" but is neither blocked nor overruled by an applied rule"
	}
	// Condition (b): iterate applicable rules on undefined atoms.
	for r := 0; r < len(v.heads); r++ {
		if m.Value(v.heads[r].Atom()) != interp.Undef {
			continue
		}
		if !v.Applicable(r, m) {
			continue
		}
		if v.Overruled(r, m) || v.Defeated(r, m) {
			continue
		}
		return true, "condition (b): applicable rule " + v.G.RuleString(v.srcs[r]) +
			" would define " + v.G.Tab.LitString(v.heads[r]) +
			" but is neither overruled nor defeated"
	}
	return false, ""
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
func (v *View) FindAssumptionSet(m *interp.Interp) []interp.Lit {
	x := make(map[interp.Lit]bool)
	for _, l := range m.Lits() {
		x[l] = true
	}
	// Precompute per-rule firing eligibility (independent of X).
	eligible := make([]bool, len(v.heads))
	for r := range v.heads {
		eligible[r] = v.Applicable(r, m) && !v.Overruled(r, m) && !v.Defeated(r, m)
	}
	for changed := true; changed; {
		changed = false
		for l := range x {
			supported := false
			for _, r := range v.headOf[l] {
				if !eligible[r] {
					continue
				}
				dep := false
				for _, b := range v.bodies[r] {
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

// IsAssumptionFreeDirect checks Definition 7 directly: m is a model and no
// subset of m is an assumption set w.r.t. m.
func (v *View) IsAssumptionFreeDirect(m *interp.Interp) bool {
	return v.IsModel(m) && v.FindAssumptionSet(m) == nil
}

// IsAssumptionFree checks Theorem 1(a): m is an assumption-free model iff
// m is a model and lfp(T) over its enabled version equals m. This is the
// efficient check; it agrees with IsAssumptionFreeDirect.
func (v *View) IsAssumptionFree(m *interp.Interp) bool {
	return v.IsModel(m) && v.TEnabled(m).Equal(m)
}
