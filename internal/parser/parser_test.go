package parser

import (
	"strings"
	"testing"
)

func TestParseSimpleClauses(t *testing.T) {
	cases := []struct {
		src  string
		want string // canonical String of the parsed rule
	}{
		{"p.", "p."},
		{"p(a).", "p(a)."},
		{"p(a, b, 3).", "p(a, b, 3)."},
		{"-p(a).", "-p(a)."},
		{"~p(a).", "-p(a)."},
		{"p(X) :- q(X).", "p(X) :- q(X)."},
		{"p(X) :- q(X), -r(X).", "p(X) :- q(X), -r(X)."},
		{"p(X) :- not r(X).", "p(X) :- -r(X)."},
		{"p :- q, r, s.", "p :- q, r, s."},
		{"p(f(a, X)).", "p(f(a, X))."},
		{"p(f(g(a))).", "p(f(g(a)))."},
		{"p(-3).", "p(-3)."},
		{"take_loan :- inflation(X), X > 11.", "take_loan :- inflation(X), X > 11."},
		{"t :- i(X), l(Y), X > Y + 2.", "t :- i(X), l(Y), X > (Y + 2)."},
		{"t :- a(X), X >= 2 * 3 - 1.", "t :- a(X), X >= ((2 * 3) - 1)."},
		{"t :- a(X), X != b.", "t :- a(X), X != b."},
		{"t :- a(X), X = 4.", "t :- a(X), X = 4."},
		{"t :- a(X), X mod 2 = 1.", "t :- a(X), (X mod 2) = 1."},
		{"t :- a(X, Y), X < Y.", "t :- a(X, Y), X < Y."},
		// Mixed literal/builtin ordering is normalised: literals first.
		{"t :- X > 1, a(X).", "t :- a(X), X > 1."},
	}
	for _, c := range cases {
		r, err := ParseRule(c.src)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", c.src, err)
			continue
		}
		if got := r.String(); got != c.want {
			t.Errorf("ParseRule(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, src := range []string{
		"p",             // missing dot
		"p :- .",        // empty body
		"p :- q",        // missing dot
		"p(X",           // unclosed paren
		"P(a).",         // variable as predicate
		"p :- 3.",       // integer literal as body atom
		"p :- X + 1.",   // bare arithmetic as literal
		"p. q.",         // trailing clause in ParseRule
		"p :- not X>1.", /* 'not' cannot negate comparison */
	} {
		if _, err := ParseRule(src); err == nil {
			t.Errorf("ParseRule(%q) succeeded, want error", src)
		}
	}
}

func TestParseModules(t *testing.T) {
	src := `
module c2 {
  bird(penguin).
  fly(X) :- bird(X).
}
module c1 extends c2 {
  -fly(X) :- ground_animal(X).
}
`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Components) != 2 {
		t.Fatalf("got %d components", len(p.Components))
	}
	i1, _ := p.ComponentIndex("c1")
	i2, _ := p.ComponentIndex("c2")
	if !p.Less(i1, i2) {
		t.Error("extends edge missing (c1 < c2)")
	}
	if n := len(p.Component("c2").Rules); n != 2 {
		t.Errorf("c2 has %d rules", n)
	}
}

func TestParseMultiExtendsAndOrderDecl(t *testing.T) {
	src := `
module a { x. }
module b { y. }
module c extends a, b { z. }
module d { w. }
order d < a < b.
`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	idx := func(n string) int { i, _ := p.ComponentIndex(n); return i }
	if !p.Less(idx("c"), idx("a")) || !p.Less(idx("c"), idx("b")) {
		t.Error("multi-extends edges missing")
	}
	if !p.Less(idx("d"), idx("a")) || !p.Less(idx("a"), idx("b")) || !p.Less(idx("d"), idx("b")) {
		t.Error("order chain edges missing")
	}
}

func TestParseOrderForwardReference(t *testing.T) {
	// order may reference modules declared later in the file.
	src := `
order a < b.
module a { x. }
module b { y. }
`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	ia, _ := p.ComponentIndex("a")
	ib, _ := p.ComponentIndex("b")
	if !p.Less(ia, ib) {
		t.Error("forward order reference not resolved")
	}
}

func TestParseImplicitMain(t *testing.T) {
	p, err := ParseProgram("a.\nb :- a.\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Components) != 1 || p.Components[0].Name != MainComponent {
		t.Fatalf("implicit component wrong: %v", p.Components)
	}
	if len(p.Components[0].Rules) != 2 {
		t.Errorf("main has %d rules", len(p.Components[0].Rules))
	}
}

func TestParseReopenedModule(t *testing.T) {
	src := `
module m { a. }
module m { b. }
`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p.Component("m").Rules); n != 2 {
		t.Errorf("reopened module has %d rules, want 2", n)
	}
}

func TestParseQueries(t *testing.T) {
	res, err := Parse(`
p(a).
?- p(X).
?- p(X), X != a.
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 2 {
		t.Fatalf("got %d queries", len(res.Queries))
	}
	if got := res.Queries[0].String(); got != "?- p(X)." {
		t.Errorf("query 0 = %q", got)
	}
	if got := res.Queries[1].String(); got != "?- p(X), X != a." {
		t.Errorf("query 1 = %q", got)
	}
	if _, err := ParseProgram(`?- p(X).`); err == nil {
		t.Error("ParseProgram accepted a query")
	}
}

func TestParseProgramErrors(t *testing.T) {
	for _, src := range []string{
		"module m { a. ",              // unterminated module
		"module m extends zzz { a. }", // unknown parent
		"order a < b.",                // unknown components
		"module a { x. } module b extends a { y. } module m { } order a < b.", // cycle a<b plus b<a? no
		"module m extends m { a. }", // self-extends
		"order a.",                  // missing <
	} {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram(%q) succeeded, want error", src)
		}
	}
	// A NUL byte outside a quoted name is an unexpected character at its
	// position, not the end of input: between clauses, and inside a
	// comment.
	for _, c := range []struct{ src, want string }{
		{"a.\x00 b. c(", "1:3: unexpected character '\\x00'"},
		{"a.\n% note \x00 b.\nc.", "2:8: unexpected character '\\x00'"},
	} {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want an error containing %q", c.src, err, c.want)
		}
	}
	// Inside a quoted name a NUL is one more byte of the name.
	res, err := Parse("'a\x00b'. c.")
	if err != nil {
		t.Fatal(err)
	}
	if rules := res.Program.Components[0].Rules; len(rules) != 2 || rules[0].Head.Atom.Pred != "a\x00b" {
		t.Errorf("Parse of a quoted name holding a NUL = %v, want the facts 'a\\x00b' and c", res.Program)
	}
	// A genuine cycle through extends.
	cyc := `
module a extends b { x. }
module b extends a { y. }
`
	if _, err := ParseProgram(cyc); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not rejected: %v", err)
	}
}

func TestParseLiteralHelper(t *testing.T) {
	l, err := ParseLiteral("-fly(penguin)")
	if err != nil {
		t.Fatal(err)
	}
	if !l.Neg || l.Atom.Pred != "fly" {
		t.Errorf("ParseLiteral = %v", l)
	}
	if _, err := ParseLiteral("fly(penguin) extra"); err == nil {
		t.Error("trailing input accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	srcs := []string{
		"module c2 {\n  bird(penguin).\n  fly(X) :- bird(X).\n}\n",
		"module a {\n  p(f(X, 3)) :- q(X), X > -2.\n}\n",
	}
	for _, src := range srcs {
		p1, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		p2, err := ParseProgram(p1.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", p1.String(), err)
		}
		if p1.String() != p2.String() {
			t.Errorf("round trip changed program:\n%s\nvs\n%s", p1, p2)
		}
	}
}

// The least integer reads as a term and as an operand, and negating it
// again is arithmetic, not a literal that would overflow.
func TestLeastInteger(t *testing.T) {
	r, err := ParseRule("p(-9223372036854775808) :- q(X), X = -9223372036854775808, X != - -9223372036854775808.")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.String(), "p(-9223372036854775808) :- q(X), X = -9223372036854775808, X != (0 - -9223372036854775808)."; got != want {
		t.Errorf("rule = %q, want %q", got, want)
	}
	if _, err := ParseLiteral("p(9223372036854775808)"); err == nil {
		t.Error("2^63 read as an integer")
	}
}

func TestUnaryMinusInComparisons(t *testing.T) {
	r, err := ParseRule("p :- a(X), -X > 3.")
	if err != nil {
		t.Fatal(err)
	}
	// The leading '-' before a variable inside a comparison is arithmetic
	// negation, encoded as 0 - X.
	if len(r.Builtins) != 1 {
		t.Fatalf("builtins = %v", r.Builtins)
	}
	if got := r.Builtins[0].String(); got != "(0 - X) > 3" {
		t.Errorf("builtin = %q", got)
	}

	// And a '-' before an identifier that turns out to be a comparison
	// operand is also arithmetic.
	r2, err := ParseRule("p :- a(X), -X + 1 > 3.")
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Builtins) != 1 || len(r2.Body) != 1 {
		t.Fatalf("rule = %v", r2)
	}
}
