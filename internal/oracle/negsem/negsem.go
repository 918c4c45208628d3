// Package negsem implements the *direct* semantics for negative programs
// of Definition 11 (§4 of the paper), which makes no reference to ordered
// programs: negative rules act as exceptions to general rules. Theorem 2
// states its equivalence with the 3-level translation 3V(C); the test
// suite verifies that equivalence against the ordered engine.
package negsem

import (
	"errors"

	"repro/internal/ground"
	"repro/internal/interp"
)

// ErrBudget reports that enumeration exceeded its budget.
var ErrBudget = errors.New("negsem: search budget exceeded")

// Semantics evaluates Definition 11 over the ground rules of a negative
// program (all components of the ground program are treated alike; the
// intended input is a single-component grounding).
type Semantics struct {
	G *ground.Program
	// negHeads[a] lists rules with head ¬a (potential exceptions).
	negHeads map[interp.AtomID][]int
	// posHeads[l] lists rules with the given head literal.
	headOf map[interp.Lit][]int
}

// New prepares Definition 11 evaluation over g.
func New(g *ground.Program) *Semantics {
	s := &Semantics{
		G:        g,
		negHeads: make(map[interp.AtomID][]int),
		headOf:   make(map[interp.Lit][]int),
	}
	for i := 0; i < g.Rules.Len(); i++ {
		h := g.Rules.Head(i)
		s.headOf[h] = append(s.headOf[h], i)
		if h.Neg() {
			s.negHeads[h.Atom()] = append(s.negHeads[h.Atom()], i)
		}
	}
	return s
}

func litValue(m *interp.Interp, l interp.Lit) interp.Value {
	v := m.Value(l.Atom())
	if l.Neg() {
		return interp.True - v
	}
	return v
}

func (s *Semantics) bodyValue(m *interp.Interp, body []interp.Lit) interp.Value {
	v := interp.True
	for _, l := range body {
		if w := litValue(m, l); w < v {
			v = w
		}
	}
	return v
}

// IsModel checks Definition 11(a): every ground rule either satisfies
// value(H) >= value(B) or is excused by an exception.
//
// The paper states the exception clause tersely; reconstructing it so that
// Theorem 2 (equivalence with the 3V translation, verified by the test
// suite) holds gives a case split on the head's value. A violated
// *seminegative* rule with head atom A is excused when
//
//   - value(A) = F and some negative rule with head ¬A is applied
//     (value of its body is T) — the exception actively overrules; or
//   - value(A) = U and some negative rule with head ¬A is non-blocked
//     (value of its body is at least U) — the possible exception keeps A
//     undefined.
//
// Negative rules are never excused: exceptions cannot themselves be
// excepted (3V(C) has no component below the exceptions).
func (s *Semantics) IsModel(m *interp.Interp) bool {
	if !m.Consistent() {
		return false
	}
	for i := 0; i < s.G.Rules.Len(); i++ {
		r := s.G.Rules.Rule(i)
		if litValue(m, r.Head) >= s.bodyValue(m, r.Body) {
			continue
		}
		if !s.excused(m, r) {
			return false
		}
	}
	return true
}

// excused reports the reconstructed Definition 11(a)(ii) for rule r; see
// IsModel.
func (s *Semantics) excused(m *interp.Interp, r ground.Rule) bool {
	if r.Head.Neg() {
		return false
	}
	comp := r.Head.Complement()
	var need interp.Value
	switch m.Value(r.Head.Atom()) {
	case interp.False:
		need = interp.True // applied exception required
	case interp.Undef:
		need = interp.Undef // non-blocked exception suffices
	default:
		return false // true heads satisfy value(H) >= value(B) trivially
	}
	for _, i := range s.negHeads[comp.Atom()] {
		e := s.G.Rules.Rule(i)
		if e.Head == comp && s.bodyValue(m, e.Body) >= need {
			return true
		}
	}
	return false
}

// FindAssumptionSet returns a non-empty assumption set X ⊆ I⁺ w.r.t. I in
// the sense of §4 ([SZ]): for each atom A in X every rule with head A has
// body value ≤ U or a body literal in X. Nil when none exists.
func (s *Semantics) FindAssumptionSet(m *interp.Interp) []interp.AtomID {
	x := make(map[interp.AtomID]bool)
	for _, a := range m.PosAtoms() {
		x[a] = true
	}
	for changed := true; changed; {
		changed = false
		for a := range x {
			supported := false
			for _, i := range s.headOf[interp.MkLit(a, false)] {
				r := s.G.Rules.Rule(i)
				if s.bodyValue(m, r.Body) != interp.True {
					continue
				}
				dep := false
				for _, b := range r.Body {
					if !b.Neg() && x[b.Atom()] {
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
				delete(x, a)
				changed = true
			}
		}
	}
	if len(x) == 0 {
		return nil
	}
	out := make([]interp.AtomID, 0, len(x))
	for a := range x {
		out = append(out, a)
	}
	return out
}

// IsAssumptionFree checks Definition 11(b): I is a model and no non-empty
// subset of I⁺ is an assumption set.
func (s *Semantics) IsAssumptionFree(m *interp.Interp) bool {
	return s.IsModel(m) && s.FindAssumptionSet(m) == nil
}

// AssumptionFreeModels enumerates all Definition 11 assumption-free models
// by brute force over three-valued assignments (for theorem verification
// on small programs).
func (s *Semantics) AssumptionFreeModels(maxLeaves int) ([]*interp.Interp, error) {
	if maxLeaves == 0 {
		maxLeaves = 1 << 22
	}
	n := s.G.Tab.Len()
	cur := interp.New(s.G.Tab)
	var found []*interp.Interp
	leaves := 0
	var rec func(a int) error
	rec = func(a int) error {
		if a == n {
			leaves++
			if leaves > maxLeaves {
				return ErrBudget
			}
			if s.IsAssumptionFree(cur) {
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

// StableModels returns the maximal assumption-free models of Definition
// 11(c).
func (s *Semantics) StableModels(maxLeaves int) ([]*interp.Interp, error) {
	af, err := s.AssumptionFreeModels(maxLeaves)
	if err != nil {
		return nil, err
	}
	var out []*interp.Interp
	for i, m := range af {
		maximal := true
		for j, o := range af {
			if i != j && m.ProperSubsetOf(o) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, m)
		}
	}
	return out, nil
}
