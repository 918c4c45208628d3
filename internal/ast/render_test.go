package ast

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// renderOracle renders a term the way String did before terms were
// written straight into a presized builder: one string per subterm.
func renderOracle(t Term) string {
	switch t := t.(type) {
	case Var:
		return t.Name
	case Sym:
		return string(t)
	case Int:
		return fmt.Sprintf("%d", int64(t))
	}
	c := t.(Compound)
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = renderOracle(a)
	}
	return c.Functor + "(" + strings.Join(parts, ", ") + ")"
}

func randomTerm(rng *rand.Rand, depth int) Term {
	switch k := rng.Intn(6); {
	case k == 0:
		return Var{Name: fmt.Sprintf("X%d", rng.Intn(3))}
	case k == 1:
		return Sym(fmt.Sprintf("c%d", rng.Intn(200)))
	case k == 2:
		return Int(rng.Int63n(2001) - 1000)
	case k == 3:
		return Int([]int64{0, math.MinInt64, math.MaxInt64}[rng.Intn(3)])
	case depth < 3:
		args := make([]Term, 1+rng.Intn(3))
		for i := range args {
			args[i] = randomTerm(rng, depth+1)
		}
		return Compound{Functor: "f", Args: args}
	}
	return Sym("leaf")
}

// TestRenderingMatchesOracle: terms, atoms, literals and queries render
// byte for byte as the per-subterm concatenation they replaced, and every
// length used to presize a builder is exact.
func TestRenderingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		body := make([]Literal, rng.Intn(4))
		want := make([]string, len(body))
		for i := range body {
			a := Atom{Pred: fmt.Sprintf("p%d", rng.Intn(3)), Args: make([]Term, rng.Intn(4))}
			args := make([]string, len(a.Args))
			for j := range a.Args {
				a.Args[j] = randomTerm(rng, 0)
				args[j] = renderOracle(a.Args[j])
				if got := TermLen(a.Args[j]); got != len(args[j]) {
					t.Fatalf("TermLen(%s) = %d, want %d", args[j], got, len(args[j]))
				}
				if got := a.Args[j].String(); got != args[j] {
					t.Fatalf("String = %q, want %q", got, args[j])
				}
			}
			atom := a.Pred
			if len(args) > 0 {
				atom += "(" + strings.Join(args, ", ") + ")"
			}
			body[i] = Literal{Neg: rng.Intn(2) == 0, Atom: a}
			want[i] = atom
			if body[i].Neg {
				want[i] = "-" + atom
			}
			if got := body[i].String(); got != want[i] {
				t.Fatalf("Literal.String = %q, want %q", got, want[i])
			}
			if got := body[i].len(); got != len(want[i]) {
				t.Fatalf("len(%s) = %d, want %d", want[i], got, len(want[i]))
			}
		}
		q := Query{Body: body}
		wantQ := "?- " + strings.Join(want, ", ")
		if rng.Intn(4) == 0 {
			q.Builtins = []Builtin{{Op: LT, L: TermExpr{Term: Var{Name: "X0"}}, R: TermExpr{Term: Int(3)}}}
			if len(body) > 0 {
				wantQ += ", "
			}
			wantQ += "X0 < 3"
		}
		wantQ += "."
		if got := q.String(); got != wantQ {
			t.Fatalf("Query.String = %q, want %q", got, wantQ)
		}
	}
}
