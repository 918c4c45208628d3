package ast

import (
	"strings"
	"testing"
)

func rule(head Literal, body ...Literal) *Rule { return &Rule{Head: head, Body: body} }

func TestRulePredicates(t *testing.T) {
	r := rule(Pos(atomOf("p", Var{Name: "X"})), Pos(atomOf("q", Var{Name: "X"})), Neg(atomOf("r")))
	if r.IsFact() {
		t.Error("rule with body IsFact")
	}
	if !Fact(Pos(atomOf("p"))).IsFact() {
		t.Error("fact not IsFact")
	}
	if !r.IsSeminegative() {
		t.Error("positive-head rule not seminegative")
	}
	if r.IsPositive() {
		t.Error("rule with negative body literal IsPositive")
	}
	pos := rule(Pos(atomOf("p")), Pos(atomOf("q")))
	if !pos.IsPositive() {
		t.Error("Horn clause not IsPositive")
	}
	negHead := rule(Neg(atomOf("p")))
	if negHead.IsSeminegative() || negHead.IsPositive() {
		t.Error("negative-head rule misclassified")
	}
}

func TestRuleString(t *testing.T) {
	r := &Rule{
		Head:     Pos(atomOf("take_loan")),
		Body:     []Literal{Pos(atomOf("inflation", Var{Name: "X"}))},
		Builtins: []Builtin{{Op: GT, L: te(Var{Name: "X"}), R: te(Int(11))}},
	}
	if got := r.String(); got != "take_loan :- inflation(X), X > 11." {
		t.Errorf("Rule.String = %q", got)
	}
	if got := Fact(Neg(atomOf("fly", Sym("p")))).String(); got != "-fly(p)." {
		t.Errorf("fact String = %q", got)
	}
}

func TestRuleVarsAndGround(t *testing.T) {
	r := &Rule{
		Head:     Pos(atomOf("p", Var{Name: "X"})),
		Body:     []Literal{Pos(atomOf("q", Var{Name: "Y"}))},
		Builtins: []Builtin{{Op: LT, L: te(Var{Name: "Y"}), R: te(Var{Name: "Z"})}},
	}
	vs := r.Vars()
	if len(vs) != 3 || vs[0].Name != "X" || vs[1].Name != "Y" || vs[2].Name != "Z" {
		t.Errorf("Rule.Vars = %v", vs)
	}
	if r.Ground() {
		t.Error("non-ground rule Ground")
	}
	g := r.Substitute(func(v Var) Term { return Int(1) })
	if !g.Ground() {
		t.Errorf("substituted rule not ground: %s", g)
	}
	if r.Ground() {
		t.Error("Substitute mutated the source rule")
	}
}

func TestRuleEqualAndClone(t *testing.T) {
	a := rule(Pos(atomOf("p")), Pos(atomOf("q")), Neg(atomOf("r")))
	b := rule(Pos(atomOf("p")), Pos(atomOf("q")), Neg(atomOf("r")))
	if !a.Equal(b) {
		t.Error("equal rules not Equal")
	}
	c := rule(Pos(atomOf("p")), Neg(atomOf("r")), Pos(atomOf("q"))) // body order matters
	if a.Equal(c) {
		t.Error("body-permuted rules Equal")
	}
	cl := a.Clone()
	if !a.Equal(cl) {
		t.Error("clone differs")
	}
	cl.Body[0] = Neg(atomOf("q"))
	if a.Equal(cl) {
		t.Error("mutating clone affected source")
	}
}

func buildProgram(t *testing.T, edges [][2]string, comps ...string) *OrderedProgram {
	t.Helper()
	p := NewOrderedProgram()
	for _, c := range comps {
		if err := p.AddComponent(&Component{Name: c}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edges {
		if err := p.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOrderValidation(t *testing.T) {
	p := NewOrderedProgram()
	if err := p.AddComponent(&Component{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddComponent(&Component{Name: "a"}); err == nil {
		t.Error("duplicate component accepted")
	}
	if err := p.AddEdge("a", "a"); err == nil {
		t.Error("self edge accepted")
	}
	if err := p.AddEdge("a", "zzz"); err == nil {
		t.Error("edge to unknown component accepted")
	}

	// A cycle through three components must be rejected.
	q := NewOrderedProgram()
	for _, c := range []string{"a", "b", "c"} {
		if err := q.AddComponent(&Component{Name: c}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}} {
		if err := q.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Validate(); err == nil {
		t.Error("cyclic order accepted")
	}
}

func TestOrderRelations(t *testing.T) {
	// Diamond: d < b < a, d < c < a; b and c incomparable.
	p := buildProgram(t, [][2]string{{"d", "b"}, {"d", "c"}, {"b", "a"}, {"c", "a"}}, "a", "b", "c", "d")
	idx := func(n string) int {
		i, ok := p.ComponentIndex(n)
		if !ok {
			t.Fatalf("missing %s", n)
		}
		return i
	}
	a, b, c, d := idx("a"), idx("b"), idx("c"), idx("d")
	if !p.Less(d, a) {
		t.Error("transitive closure missing d < a")
	}
	if !p.Less(b, a) || !p.Less(d, b) || !p.Less(d, c) || !p.Less(c, a) {
		t.Error("declared edges missing from closure")
	}
	if p.Less(a, d) || p.Less(b, c) || p.Less(c, b) {
		t.Error("spurious order relations")
	}
	if !p.Incomparable(b, c) {
		t.Error("b and c should be incomparable")
	}
	if p.Incomparable(d, a) || p.Incomparable(a, a) {
		t.Error("Incomparable wrong on comparable/equal pairs")
	}
	above := p.Above(d)
	if len(above) != 4 {
		t.Errorf("Above(d) = %v, want all four components", above)
	}
	if got := p.Above(a); len(got) != 1 || got[0] != a {
		t.Errorf("Above(a) = %v, want [a]", got)
	}
}

func TestVisibleRules(t *testing.T) {
	p := buildProgram(t, [][2]string{{"c1", "c2"}}, "c2", "c1")
	p.Component("c2").AddRule(Fact(Pos(atomOf("top"))))
	p.Component("c1").AddRule(Fact(Pos(atomOf("bottom"))))
	i1, _ := p.ComponentIndex("c1")
	i2, _ := p.ComponentIndex("c2")
	if got := len(p.VisibleRules(i1)); got != 2 {
		t.Errorf("c1 sees %d rules, want 2", got)
	}
	if got := len(p.VisibleRules(i2)); got != 1 {
		t.Errorf("c2 sees %d rules, want 1", got)
	}
}

func TestProgramInventories(t *testing.T) {
	p := buildProgram(t, nil, "c")
	c := p.Component("c")
	c.AddRule(&Rule{
		Head: Pos(atomOf("p", Sym("a"), Int(3))),
		Body: []Literal{Neg(atomOf("q", Compound{Functor: "f", Args: []Term{Sym("b")}}))},
		Builtins: []Builtin{
			{Op: GT, L: te(Var{Name: "X"}), R: te(Int(7))},
		},
	})
	preds := p.Predicates()
	if len(preds) != 2 || preds[0].String() != "p/2" || preds[1].String() != "q/1" {
		t.Errorf("Predicates = %v", preds)
	}
	consts := p.Constants()
	var names []string
	for _, x := range consts {
		names = append(names, x.String())
	}
	if got := strings.Join(names, " "); got != "3 7 a b" {
		t.Errorf("Constants = %q, want \"3 7 a b\"", got)
	}
	fns := p.Functors()
	if len(fns) != 1 || fns[0].String() != "f/1" {
		t.Errorf("Functors = %v", fns)
	}
	if p.NumRules() != 1 {
		t.Errorf("NumRules = %d", p.NumRules())
	}
}

func TestProgramStringRoundTripShape(t *testing.T) {
	p := buildProgram(t, [][2]string{{"c1", "c2"}}, "c2", "c1")
	p.Component("c2").AddRule(Fact(Pos(atomOf("a"))))
	s := p.String()
	for _, want := range []string{"module c2 {", "module c1 {", "order c1 < c2."} {
		if !strings.Contains(s, want) {
			t.Errorf("program String missing %q:\n%s", want, s)
		}
	}
}

func TestSingleComponent(t *testing.T) {
	p := SingleComponent("only", []*Rule{Fact(Pos(atomOf("a")))})
	if len(p.Components) != 1 || p.Components[0].Name != "only" {
		t.Errorf("SingleComponent shape wrong: %v", p.Components)
	}
	if p.Component("only") == nil || p.Component("other") != nil {
		t.Error("Component lookup wrong")
	}
}

func TestComponentClassification(t *testing.T) {
	c := &Component{Name: "c"}
	c.AddRule(rule(Pos(atomOf("p")), Pos(atomOf("q"))))
	if !c.IsSeminegative() || !c.IsPositive() {
		t.Error("Horn component misclassified")
	}
	c.AddRule(rule(Pos(atomOf("p")), Neg(atomOf("q"))))
	if !c.IsSeminegative() || c.IsPositive() {
		t.Error("seminegative component misclassified")
	}
	c.AddRule(rule(Neg(atomOf("p"))))
	if c.IsSeminegative() {
		t.Error("negative component misclassified")
	}
}

func TestQueryStringAndVars(t *testing.T) {
	q := Query{
		Body:     []Literal{Pos(atomOf("p", Var{Name: "X"})), Neg(atomOf("q", Var{Name: "Y"}))},
		Builtins: []Builtin{{Op: LT, L: te(Var{Name: "X"}), R: te(Var{Name: "Y"})}},
	}
	if got := q.String(); got != "?- p(X), -q(Y), X < Y." {
		t.Errorf("Query.String = %q", got)
	}
	vs := q.Vars()
	if len(vs) != 2 || vs[0].Name != "X" || vs[1].Name != "Y" {
		t.Errorf("Query.Vars = %v", vs)
	}
}

// TestConstantsKeepKinds: the symbol "1" and the integer 1 print alike but
// are two constants, and Constants returns both, the integer first.
func TestConstantsKeepKinds(t *testing.T) {
	p := SingleComponent("m", []*Rule{
		Fact(Pos(atomOf("p", Int(1)))),
		Fact(Pos(atomOf("p", Sym("1")))),
		Fact(Pos(atomOf("p", Int(1)))),
	})
	got := p.Constants()
	if len(got) != 2 || !got[0].Equal(Int(1)) || !got[1].Equal(Sym("1")) {
		t.Fatalf("Constants = %#v, want [Int(1) Sym(\"1\")]", got)
	}
}
