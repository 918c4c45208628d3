package term

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
)

func TestInternHashConsing(t *testing.T) {
	tab := NewTable()
	a1 := tab.Intern(ast.Sym("a"))
	a2 := tab.Intern(ast.Sym("a"))
	if a1 != a2 {
		t.Errorf("same symbol interned twice: %d != %d", a1, a2)
	}
	if b := tab.Intern(ast.Sym("b")); b == a1 {
		t.Error("distinct symbols share an id")
	}
	c1 := tab.Intern(ast.Compound{Functor: "f", Args: []ast.Term{ast.Sym("a"), ast.Int(1)}})
	c2 := tab.Intern(ast.Compound{Functor: "f", Args: []ast.Term{ast.Sym("a"), ast.Int(1)}})
	if c1 != c2 {
		t.Errorf("structurally equal compounds differ: %d != %d", c1, c2)
	}
	if c3 := tab.Intern(ast.Compound{Functor: "f", Args: []ast.Term{ast.Int(1), ast.Sym("a")}}); c3 == c1 {
		t.Error("argument order ignored")
	}
	if !tab.Term(c1).Equal(ast.Compound{Functor: "f", Args: []ast.Term{ast.Sym("a"), ast.Int(1)}}) {
		t.Errorf("Term round-trip broken: %s", tab.Term(c1))
	}
}

func TestInternNoCrossKindCollision(t *testing.T) {
	tab := NewTable()
	i := tab.Intern(ast.Int(1))
	s := tab.Intern(ast.Sym("1"))
	v := tab.Intern(ast.Var{Name: "1"})
	if i == s || s == v || i == v {
		t.Errorf("kind collision: int=%d sym=%d var=%d", i, s, v)
	}
	// A symbol whose bytes look like a packed compound key must not collide
	// with a compound.
	c := tab.Intern(ast.Compound{Functor: "g", Args: []ast.Term{ast.Sym("x")}})
	s2 := tab.Intern(ast.Sym("g(x)"))
	if c == s2 {
		t.Error("compound/symbol collision")
	}
}

func TestLookupDoesNotIntern(t *testing.T) {
	tab := NewTable()
	if _, ok := tab.Lookup(ast.Sym("ghost")); ok {
		t.Error("Lookup found a never-interned term")
	}
	if tab.Len() != 0 {
		t.Errorf("Lookup interned: Len=%d", tab.Len())
	}
	id := tab.Intern(ast.Compound{Functor: "f", Args: []ast.Term{ast.Sym("a")}})
	got, ok := tab.Lookup(ast.Compound{Functor: "f", Args: []ast.Term{ast.Sym("a")}})
	if !ok || got != id {
		t.Errorf("Lookup after Intern = (%d, %v), want (%d, true)", got, ok, id)
	}
	// Compound with an uninterned subterm: lookup fails without interning.
	n := tab.Len()
	if _, ok := tab.Lookup(ast.Compound{Functor: "f", Args: []ast.Term{ast.Sym("zz")}}); ok {
		t.Error("Lookup found compound with uninterned arg")
	}
	if tab.Len() != n {
		t.Error("failed Lookup grew the table")
	}
}

// TestInternEqualIsStructuralEqual: random deep terms, pairwise — interned
// ids agree exactly when ast.Term.Equal does.
func TestInternEqualIsStructuralEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var gen func(depth int) ast.Term
	gen = func(depth int) ast.Term {
		switch r := rng.Intn(4); {
		case r == 0 || depth >= 3:
			return ast.Sym(fmt.Sprintf("s%d", rng.Intn(4)))
		case r == 1:
			return ast.Int(int64(rng.Intn(3)))
		default:
			n := 1 + rng.Intn(2)
			args := make([]ast.Term, n)
			for i := range args {
				args[i] = gen(depth + 1)
			}
			return ast.Compound{Functor: fmt.Sprintf("f%d", rng.Intn(2)), Args: args}
		}
	}
	tab := NewTable()
	terms := make([]ast.Term, 200)
	ids := make([]ID, len(terms))
	for i := range terms {
		terms[i] = gen(0)
		ids[i] = tab.Intern(terms[i])
	}
	for i := range terms {
		for j := range terms {
			if (ids[i] == ids[j]) != terms[i].Equal(terms[j]) {
				t.Fatalf("id equality diverges from structural equality: %s vs %s (ids %d, %d)",
					terms[i], terms[j], ids[i], ids[j])
			}
		}
	}
}

func TestHashIDsOrderSensitive(t *testing.T) {
	a := HashIDs(HashSeed, []ID{1, 2, 3})
	b := HashIDs(HashSeed, []ID{3, 2, 1})
	if a == b {
		t.Error("permuted tuples hash equal (weak but suspicious)")
	}
	if HashIDs(HashSeed, []ID{1, 2, 3}) != a {
		t.Error("hash not deterministic")
	}
}
