package ast

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randGroundTerm(rng *rand.Rand, depth int) Term {
	switch {
	case depth <= 0 || rng.Intn(3) == 0:
		if rng.Intn(2) == 0 {
			return Sym([]string{"a", "b", "c", "1", "-1", "f(a)"}[rng.Intn(6)])
		}
		return Int(int64(rng.Intn(5) - 2))
	default:
		k := 1 + rng.Intn(2)
		args := make([]Term, k)
		for i := range args {
			args[i] = randGroundTerm(rng, depth-1)
		}
		return Compound{Functor: []string{"f", "g"}[rng.Intn(2)], Args: args}
	}
}

// TestQuickCompareTermsTotalOrder: CompareTerms is reflexive-zero,
// antisymmetric and transitive on random ground terms, and consistent
// with Equal.
func TestQuickCompareTermsTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randGroundTerm(rng, 3)
		y := randGroundTerm(rng, 3)
		z := randGroundTerm(rng, 3)
		if CompareTerms(x, x) != 0 {
			return false
		}
		cxy, cyx := CompareTerms(x, y), CompareTerms(y, x)
		if (cxy == 0) != (cyx == 0) || (cxy < 0) != (cyx > 0) {
			return false
		}
		if (cxy == 0) != x.Equal(y) {
			return false
		}
		// Transitivity on ≤.
		if CompareTerms(x, y) <= 0 && CompareTerms(y, z) <= 0 && CompareTerms(x, z) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTermStringInjective: distinct ground terms render distinctly,
// across kinds too: Sym("1") renders '1' and Int(1) renders 1.
func TestQuickTermStringInjective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randGroundTerm(rng, 3)
		y := randGroundTerm(rng, 3)
		return x.Equal(y) == (x.String() == y.String())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSubstituteGrounds: substituting every variable with a ground
// term grounds the rule and never changes its shape counts.
func TestQuickSubstituteGrounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars := []Term{Var{Name: "X"}, Var{Name: "Y"}}
		mkAtom := func() Atom {
			args := []Term{vars[rng.Intn(2)], randGroundTerm(rng, 1)}
			return Atom{Pred: "p", Args: args}
		}
		r := &Rule{Head: Literal{Neg: rng.Intn(2) == 0, Atom: mkAtom()}}
		for i := 0; i < rng.Intn(3); i++ {
			r.Body = append(r.Body, Literal{Neg: rng.Intn(2) == 0, Atom: mkAtom()})
		}
		g := r.Substitute(func(v Var) Term { return Sym("k" + v.Name) })
		if !g.Ground() {
			return false
		}
		return len(g.Body) == len(r.Body) && g.Head.Neg == r.Head.Neg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
