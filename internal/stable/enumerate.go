package stable

import (
	"repro/internal/eval"
	"repro/internal/interp"
)

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

// Intersection returns the intersection of a non-empty family of
// interpretations.
func Intersection(ms []*interp.Interp) *interp.Interp {
	out := ms[0].Clone()
	for _, m := range ms[1:] {
		out.IntersectWith(m)
	}
	return out
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

var errNotModel = errNotModelType{}

type errNotModelType struct{}

func (errNotModelType) Error() string { return "stable: interpretation is not a model" }
