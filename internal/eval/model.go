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
		return true, "condition (a): rule " + v.G.RuleString(v.GroundRule(r)) +
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
		return true, "condition (b): applicable rule " + v.G.RuleString(v.GroundRule(r)) +
			" would define " + v.G.Tab.LitString(v.heads[r]) +
			" but is neither overruled nor defeated"
	}
	return false, ""
}

// IsAssumptionFree checks Theorem 1(a): m is an assumption-free model iff
// m is a model and lfp(T) over its enabled version equals m. This is the
// efficient check; the tests pin it to Definition 7 checked directly.
func (v *View) IsAssumptionFree(m *interp.Interp) bool {
	return v.IsModel(m) && v.TEnabled(m).Equal(m)
}
