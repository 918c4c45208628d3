package interp

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/term"
)

func atomOf(pred string, args ...ast.Term) ast.Atom { return ast.Atom{Pred: pred, Args: args} }

func TestTableIntern(t *testing.T) {
	tab := NewTable()
	a := tab.Intern(atomOf("p", ast.Sym("a")))
	b := tab.Intern(atomOf("p", ast.Sym("b")))
	if a == b {
		t.Error("distinct atoms share an id")
	}
	if got := tab.Intern(atomOf("p", ast.Sym("a"))); got != a {
		t.Error("re-interning changed the id")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d", tab.Len())
	}
	if got := tab.Atom(a); !got.Equal(atomOf("p", ast.Sym("a"))) {
		t.Errorf("Atom(%d) = %s", a, got)
	}
	if id, ok := tab.Lookup(atomOf("p", ast.Sym("b"))); !ok || id != b {
		t.Error("Lookup failed")
	}
	if _, ok := tab.Lookup(atomOf("q")); ok {
		t.Error("Lookup found a missing atom")
	}
}

func TestTableDistinguishesTermKinds(t *testing.T) {
	tab := NewTable()
	i := tab.Intern(atomOf("p", ast.Int(1)))
	s := tab.Intern(atomOf("p", ast.Sym("1")))
	if i == s {
		t.Error("integer 1 and symbol \"1\" collide")
	}
	c1 := tab.Intern(atomOf("p", ast.Compound{Functor: "f", Args: []ast.Term{ast.Sym("a"), ast.Sym("b")}}))
	c2 := tab.Intern(atomOf("p", ast.Compound{Functor: "f", Args: []ast.Term{ast.Sym("a,b")}}))
	if c1 == c2 {
		t.Error("f(a,b) and f('a,b') collide")
	}
}

func TestOfPredAndPreds(t *testing.T) {
	tab := NewTable()
	tab.Intern(atomOf("p", ast.Sym("a")))
	tab.Intern(atomOf("p", ast.Sym("b")))
	tab.Intern(atomOf("q"))
	if got := tab.OfPred(ast.PredKey{Name: "p", Arity: 1}); len(got) != 2 {
		t.Errorf("OfPred(p/1) = %v", got)
	}
	preds := tab.Preds()
	if len(preds) != 2 || preds[0].Name != "p" || preds[1].Name != "q" {
		t.Errorf("Preds = %v", preds)
	}
}

// A sub-table renumbers the chosen atoms densely and answers every read
// through its parent; atoms it was not given are absent from it.
func TestSubTable(t *testing.T) {
	tab := NewTable()
	pa := tab.Intern(atomOf("p", ast.Sym("a")))
	tab.Intern(atomOf("p", ast.Sym("b")))
	q := tab.Intern(atomOf("q"))
	pc := tab.Intern(atomOf("p", ast.Sym("c")))
	sub := tab.Sub([]AtomID{pa, q, pc})
	if sub.Len() != 3 || sub.TermTable() != tab.TermTable() {
		t.Fatalf("Len = %d, shares term table = %v", sub.Len(), sub.TermTable() == tab.TermTable())
	}
	for i, want := range []ast.Atom{atomOf("p", ast.Sym("a")), atomOf("q"), atomOf("p", ast.Sym("c"))} {
		if got := sub.Atom(AtomID(i)); !got.Equal(want) {
			t.Errorf("Atom(%d) = %s, want %s", i, got, want)
		}
		if id, ok := sub.Lookup(want); !ok || id != AtomID(i) {
			t.Errorf("Lookup(%s) = %d, %v, want %d", want, id, ok, i)
		}
	}
	if _, ok := sub.Lookup(atomOf("p", ast.Sym("b"))); ok {
		t.Error("Lookup found an atom the sub-table was not given")
	}
	sym, _ := tab.TermTable().LookupSym("p")
	c, _ := tab.TermTable().Lookup(ast.Sym("c"))
	if id, ok := sub.LookupIDs(sym, []term.ID{c}); !ok || id != 2 {
		t.Errorf("LookupIDs(p(c)) = %d, %v, want 2", id, ok)
	}
	if got := sub.OfPred(ast.PredKey{Name: "p", Arity: 1}); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("OfPred(p/1) = %v, want [0 2]", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Intern into a sub-table did not panic")
		}
	}()
	sub.Intern(atomOf("r"))
}

func TestLitEncoding(t *testing.T) {
	for _, id := range []AtomID{0, 1, 7, 12345} {
		for _, neg := range []bool{false, true} {
			l := MkLit(id, neg)
			if l.Atom() != id || l.Neg() != neg {
				t.Errorf("MkLit(%d,%v) decodes to (%d,%v)", id, neg, l.Atom(), l.Neg())
			}
			if c := l.Complement(); c.Atom() != id || c.Neg() == neg || c.Complement() != l {
				t.Errorf("Complement broken for %v", l)
			}
		}
	}
}

func TestLitString(t *testing.T) {
	tab := NewTable()
	id := tab.Intern(atomOf("fly", ast.Sym("tweety")))
	if got := tab.LitString(MkLit(id, false)); got != "fly(tweety)" {
		t.Errorf("LitString = %q", got)
	}
	if got := tab.LitString(MkLit(id, true)); got != "-fly(tweety)" {
		t.Errorf("LitString = %q", got)
	}
}

func mkTab(n int) *Table {
	tab := NewTable()
	for i := 0; i < n; i++ {
		tab.Intern(atomOf("a", ast.Int(int64(i))))
	}
	return tab
}

func TestInterpBasics(t *testing.T) {
	tab := mkTab(4)
	in := New(tab)
	if in.Len() != 0 || !in.Consistent() || in.Total() {
		t.Error("fresh interp wrong")
	}
	if !in.AddLit(MkLit(0, false)) || !in.AddLit(MkLit(1, true)) {
		t.Fatal("AddLit failed")
	}
	if in.AddLit(MkLit(0, true)) {
		t.Error("inconsistent AddLit accepted")
	}
	if in.Value(0) != True || in.Value(1) != False || in.Value(2) != Undef {
		t.Error("Value wrong")
	}
	if !in.HasLit(MkLit(0, false)) || in.HasLit(MkLit(0, true)) {
		t.Error("HasLit wrong")
	}
	if got := in.Undefined(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Undefined = %v", got)
	}
	in.RemoveLit(MkLit(0, false))
	if in.Value(0) != Undef {
		t.Error("RemoveLit failed")
	}
}

func TestInterpSetOps(t *testing.T) {
	tab := mkTab(4)
	small, big := New(tab), New(tab)
	small.AddLit(MkLit(0, false))
	big.AddLit(MkLit(0, false))
	big.AddLit(MkLit(1, true))
	if !small.SubsetOf(big) || big.SubsetOf(small) {
		t.Error("SubsetOf wrong")
	}
	if !small.ProperSubsetOf(big) || small.ProperSubsetOf(small) {
		t.Error("ProperSubsetOf wrong")
	}
	u := small.Clone()
	if !u.UnionWith(big) || u.Len() != 2 {
		t.Error("UnionWith wrong")
	}
	// Union of conflicting interps reports inconsistency.
	c := New(tab)
	c.AddLit(MkLit(0, true))
	if c.UnionWith(big) {
		t.Error("inconsistent union reported consistent")
	}
	i := big.Clone()
	i.IntersectWith(small)
	if !i.Equal(small) {
		t.Errorf("IntersectWith = %s", i)
	}
}

func TestInterpTotal(t *testing.T) {
	tab := mkTab(2)
	in := New(tab)
	in.AddLit(MkLit(0, false))
	if in.Total() {
		t.Error("partial interp Total")
	}
	in.AddLit(MkLit(1, true))
	if !in.Total() {
		t.Error("total interp not Total")
	}
}

func TestInterpStringSorted(t *testing.T) {
	tab := NewTable()
	b := tab.Intern(atomOf("b"))
	a := tab.Intern(atomOf("a"))
	in := New(tab)
	in.AddLit(MkLit(b, true))
	in.AddLit(MkLit(a, false))
	if got := in.String(); got != "{a, -b}" {
		t.Errorf("String = %q (canonical order expected)", got)
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130) // cross word boundaries
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d", b.Count())
	}
	if !b.Get(64) || b.Get(65) {
		t.Error("Get wrong")
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 3 {
		t.Error("Clear wrong")
	}
	c := b.Clone()
	if !c.Equal(b) {
		t.Error("Clone not equal")
	}
	c.Set(1)
	if c.Equal(b) || !b.SubsetOf(c) || c.SubsetOf(b) {
		t.Error("Subset/Equal wrong after divergence")
	}
	var got []int
	c.Range(func(i int) bool { got = append(got, i); return true })
	want := []int{0, 1, 63, 129}
	if len(got) != len(want) {
		t.Fatalf("Range visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Range order %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	c.Range(func(int) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("Range did not stop early: %d", n)
	}
	// Boolean algebra.
	d := NewBitset(130)
	d.Set(0)
	d.Set(2)
	e := d.Clone()
	e.UnionWith(b)
	if !d.SubsetOf(e) || !b.SubsetOf(e) {
		t.Error("UnionWith wrong")
	}
	e.DifferenceWith(b)
	if e.Get(63) || !e.Get(2) {
		t.Error("DifferenceWith wrong")
	}
	f := d.Clone()
	f.IntersectWith(b)
	if !f.Get(0) || f.Get(2) {
		t.Error("IntersectWith wrong")
	}
	if !d.Intersects(b) {
		t.Error("Intersects wrong")
	}
	empty := NewBitset(130)
	if !empty.Empty() || b.Empty() {
		t.Error("Empty wrong")
	}
	if bits := b.Bits(); len(bits) != 3 {
		t.Errorf("Bits = %v", bits)
	}
}

func TestValueOrdering(t *testing.T) {
	// The paper's F < U < T ordering drives body evaluation.
	if !(False < Undef && Undef < True) {
		t.Error("truth ordering broken")
	}
	if False.String() != "F" || Undef.String() != "U" || True.String() != "T" {
		t.Error("value names wrong")
	}
}
