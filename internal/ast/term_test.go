package ast

import (
	"testing"
)

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{Var{Name: "X"}, "X"},
		{Sym("penguin"), "penguin"},
		{Int(42), "42"},
		{Int(-7), "-7"},
		{Compound{Functor: "f", Args: []Term{Sym("a")}}, "f(a)"},
		{Compound{Functor: "f", Args: []Term{Sym("a"), Var{Name: "X"}}}, "f(a, X)"},
		{Compound{Functor: "f", Args: []Term{Compound{Functor: "g", Args: []Term{Int(1)}}}}, "f(g(1))"},
		// Names the lexer would not read back as themselves are quoted.
		{Sym("a b"), "'a b'"},
		{Sym("1"), "'1'"},
		{Sym("X"), "'X'"},
		{Sym(""), "''"},
		{Sym("not"), "'not'"},
		{Sym(`it's \`), `'it\'s \\'`},
		{Sym("é\xff\n"), `'é\xff\x0a'`},
		{Var{Name: "x"}, "_'x'"},
		{Var{Name: ""}, "_''"},
		{Compound{Functor: "g(x)", Args: []Term{Var{Name: "_"}}}, "'g(x)'(_)"},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestTermEqual(t *testing.T) {
	f := func(args ...Term) Term { return Compound{Functor: "f", Args: args} }
	cases := []struct {
		a, b Term
		want bool
	}{
		{Sym("a"), Sym("a"), true},
		{Sym("a"), Sym("b"), false},
		{Sym("1"), Int(1), false}, // symbol "1" differs from integer 1
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Var{Name: "X"}, Var{Name: "X"}, true},
		{Var{Name: "X"}, Var{Name: "Y"}, false},
		{Var{Name: "X"}, Sym("x"), false},
		{f(Sym("a")), f(Sym("a")), true},
		{f(Sym("a")), f(Sym("b")), false},
		{f(Sym("a")), f(Sym("a"), Sym("a")), false},
		{f(Sym("a")), Compound{Functor: "g", Args: []Term{Sym("a")}}, false},
		{f(f(Int(1))), f(f(Int(1))), true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%s.Equal(%s) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("Equal not symmetric on %s, %s", c.a, c.b)
		}
	}
}

func TestTermGround(t *testing.T) {
	f := func(args ...Term) Term { return Compound{Functor: "f", Args: args} }
	cases := []struct {
		t    Term
		want bool
	}{
		{Sym("a"), true},
		{Int(0), true},
		{Var{Name: "X"}, false},
		{f(Sym("a"), Int(1)), true},
		{f(Sym("a"), Var{Name: "X"}), false},
		{f(f(Var{Name: "Y"})), false},
	}
	for _, c := range cases {
		if got := c.t.Ground(); got != c.want {
			t.Errorf("Ground(%s) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestTermVars(t *testing.T) {
	x, y := Var{Name: "X"}, Var{Name: "Y"}
	f := Compound{Functor: "f", Args: []Term{x, Compound{Functor: "g", Args: []Term{y, x}}}}
	vs := TermVars(f, nil)
	if len(vs) != 2 || vs[0].Name != "X" || vs[1].Name != "Y" {
		t.Errorf("TermVars = %v, want [X Y] (first-occurrence order, deduplicated)", vs)
	}
	if vs := TermVars(Sym("a"), nil); len(vs) != 0 {
		t.Errorf("TermVars(a) = %v, want none", vs)
	}
}

func TestTermDepthAndSize(t *testing.T) {
	g := Compound{Functor: "g", Args: []Term{Int(1)}}
	f := Compound{Functor: "f", Args: []Term{g, Sym("a")}}
	cases := []struct {
		t           Term
		depth, size int
	}{
		{Sym("a"), 0, 1},
		{Int(3), 0, 1},
		{Var{Name: "X"}, 0, 1},
		{g, 1, 2},
		{f, 2, 4},
	}
	for _, c := range cases {
		if got := TermDepth(c.t); got != c.depth {
			t.Errorf("TermDepth(%s) = %d, want %d", c.t, got, c.depth)
		}
		if got := TermSize(c.t); got != c.size {
			t.Errorf("TermSize(%s) = %d, want %d", c.t, got, c.size)
		}
	}
}

func TestCompareTerms(t *testing.T) {
	// Ints before syms before compounds before vars; then by value.
	ordered := []Term{
		Int(-1), Int(0), Int(5),
		Sym("a"), Sym("b"),
		Compound{Functor: "f", Args: []Term{Sym("a")}},
		Compound{Functor: "f", Args: []Term{Sym("b")}},
		Compound{Functor: "f", Args: []Term{Sym("a"), Sym("a")}},
		Compound{Functor: "g", Args: []Term{Sym("a")}},
		Var{Name: "X"},
	}
	for i := range ordered {
		for j := range ordered {
			got := CompareTerms(ordered[i], ordered[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%s, %s) = %d, want < 0", ordered[i], ordered[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%s, %s) = %d, want > 0", ordered[i], ordered[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%s, %s) = %d, want 0", ordered[i], ordered[j], got)
			}
		}
	}
}

func TestSortTerms(t *testing.T) {
	ts := []Term{Sym("b"), Int(3), Sym("a"), Int(1)}
	SortTerms(ts)
	want := "1 3 a b"
	got := ""
	for i, x := range ts {
		if i > 0 {
			got += " "
		}
		got += x.String()
	}
	if got != want {
		t.Errorf("SortTerms = %q, want %q", got, want)
	}
}

func TestSubstituteTerm(t *testing.T) {
	x, y := Var{Name: "X"}, Var{Name: "Y"}
	f := Compound{Functor: "f", Args: []Term{x, y}}
	out := SubstituteTerm(f, func(v Var) Term {
		if v.Name == "X" {
			return Sym("a")
		}
		return nil // Y stays
	})
	if out.String() != "f(a, Y)" {
		t.Errorf("SubstituteTerm = %s, want f(a, Y)", out)
	}
	// The original is unchanged.
	if f.String() != "f(X, Y)" {
		t.Errorf("substitution mutated the source term: %s", f)
	}
}
