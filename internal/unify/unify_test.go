package unify

import (
	"testing"

	"repro/internal/ast"
)

var (
	x = ast.Var{Name: "X"}
	y = ast.Var{Name: "Y"}
	z = ast.Var{Name: "Z"}
	a = ast.Sym("a")
	b = ast.Sym("b")
)

func f(args ...ast.Term) ast.Term { return ast.Compound{Functor: "f", Args: args} }
func g(args ...ast.Term) ast.Term { return ast.Compound{Functor: "g", Args: args} }

func TestUnifyBasics(t *testing.T) {
	cases := []struct {
		l, r ast.Term
		ok   bool
	}{
		{a, a, true},
		{a, b, false},
		{ast.Int(1), ast.Int(1), true},
		{ast.Int(1), ast.Int(2), false},
		{ast.Int(1), ast.Sym("1"), false},
		{x, a, true},
		{a, x, true},
		{x, y, true},
		{x, x, true},
		{f(a), f(a), true},
		{f(a), f(b), false},
		{f(a), g(a), false},
		{f(a), f(a, b), false},
		{f(x), f(a), true},
		{f(x, x), f(a, b), false},
		{f(x, y), f(a, b), true},
		{f(x, x), f(a, a), true},
		{f(x, b), f(a, y), true},
	}
	for _, c := range cases {
		s := NewSubst()
		if got := Unify(s, c.l, c.r); got != c.ok {
			t.Errorf("Unify(%s, %s) = %v, want %v", c.l, c.r, got, c.ok)
		}
	}
}

func TestUnifyProducesUnifier(t *testing.T) {
	s := NewSubst()
	if !Unify(s, f(x, g(y)), f(g(b), z)) {
		t.Fatal("unification failed")
	}
	l := s.Apply(f(x, g(y)))
	r := s.Apply(f(g(b), z))
	if !l.Equal(r) {
		t.Errorf("applying the mgu does not equalise: %s vs %s", l, r)
	}
}

func TestOccursCheck(t *testing.T) {
	s := NewSubst()
	if Unify(s, x, f(x)) {
		t.Error("X unified with f(X): occurs check missing")
	}
	s = NewSubst()
	if Unify(s, f(x, x), f(y, g(y))) {
		t.Error("indirect occurs violation accepted")
	}
}

func TestUnifyChains(t *testing.T) {
	s := NewSubst()
	if !Unify(s, x, y) || !Unify(s, y, z) || !Unify(s, z, a) {
		t.Fatal("chain unification failed")
	}
	for _, v := range []ast.Term{x, y, z} {
		if got := s.Apply(v); !got.Equal(a) {
			t.Errorf("Apply(%s) = %s, want a", v, got)
		}
	}
}

func TestMatchOneWay(t *testing.T) {
	s := NewSubst()
	if !Match(s, f(x, b), f(a, b)) {
		t.Fatal("match failed")
	}
	if got := s.Apply(x); !got.Equal(a) {
		t.Errorf("X bound to %s", got)
	}
	s = NewSubst()
	if Match(s, f(a), f(b)) {
		t.Error("mismatching constants matched")
	}
	// Match is one-way: already-bound pattern vars must agree.
	s = NewSubst()
	s.Bind(x, a)
	if Match(s, f(x), f(b)) {
		t.Error("bound variable re-matched against different constant")
	}
}

func TestMatchAtoms(t *testing.T) {
	s := NewSubst()
	p := ast.Atom{Pred: "p", Args: []ast.Term{x, y}}
	q := ast.Atom{Pred: "p", Args: []ast.Term{a, b}}
	if !MatchAtoms(s, p, q) {
		t.Fatal("atom match failed")
	}
	if !s.Apply(x).Equal(a) || !s.Apply(y).Equal(b) {
		t.Error("bindings wrong")
	}
	if MatchAtoms(NewSubst(), ast.Atom{Pred: "q"}, ast.Atom{Pred: "p"}) {
		t.Error("different predicates matched")
	}
	if MatchAtoms(NewSubst(), ast.Atom{Pred: "p", Args: []ast.Term{x}}, q) {
		t.Error("different arities matched")
	}
}

func TestMarkUndo(t *testing.T) {
	s := NewSubst()
	s.Bind(x, a)
	m := s.Mark()
	s.Bind(y, b)
	s.Bind(z, a)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Undo(m)
	if s.Len() != 1 {
		t.Errorf("after Undo Len = %d, want 1", s.Len())
	}
	if s.Lookup(x) == nil || s.Lookup(y) != nil || s.Lookup(z) != nil {
		t.Error("Undo removed/kept the wrong bindings")
	}
	// Nested marks.
	m1 := s.Mark()
	s.Bind(y, b)
	m2 := s.Mark()
	s.Bind(z, a)
	s.Undo(m2)
	if s.Lookup(y) == nil || s.Lookup(z) != nil {
		t.Error("nested undo wrong")
	}
	s.Undo(m1)
	if s.Lookup(y) != nil {
		t.Error("outer undo wrong")
	}
}

func TestCloneIsolation(t *testing.T) {
	s := NewSubst()
	s.Bind(x, a)
	c := s.Clone()
	c.Bind(y, b)
	if s.Lookup(y) != nil {
		t.Error("clone shares state")
	}
	if c.Lookup(x) == nil {
		t.Error("clone missed existing binding")
	}
}

func TestApplyRule(t *testing.T) {
	r := &ast.Rule{
		Head: ast.Pos(ast.Atom{Pred: "p", Args: []ast.Term{x}}),
		Body: []ast.Literal{ast.Neg(ast.Atom{Pred: "q", Args: []ast.Term{x, y}})},
	}
	s := NewSubst()
	s.Bind(x, a)
	out := s.ApplyRule(r)
	if got := out.String(); got != "p(a) :- -q(a, Y)." {
		t.Errorf("ApplyRule = %q", got)
	}
}

func TestRenameRule(t *testing.T) {
	r := &ast.Rule{
		Head: ast.Pos(ast.Atom{Pred: "p", Args: []ast.Term{x}}),
		Body: []ast.Literal{ast.Pos(ast.Atom{Pred: "q", Args: []ast.Term{x}})},
	}
	out := RenameRule(r, "7")
	if got := out.String(); got != "p(_'X#7') :- q(_'X#7')." {
		t.Errorf("RenameRule = %q", got)
	}
}

func TestSubstString(t *testing.T) {
	s := NewSubst()
	s.Bind(y, b)
	s.Bind(x, f(a))
	if got := s.String(); got != "{X->f(a), Y->b}" {
		t.Errorf("String = %q", got)
	}
}
