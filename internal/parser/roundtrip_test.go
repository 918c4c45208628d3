package parser

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/ast"
)

// readBackNames are names to write as every kind of name: identifiers,
// keywords, and names the lexer reads as something else or not at all.
var readBackNames = []string{"a", "c0", "a_b", "aB9", "é", "éa", "ñame", "X", "X1", "_", "_x", "Ça", "1", "1a", "", "a b", "a-b",
	"g(x)", "a,b", "not", "mod", "module", "extends", "order", "a.", "日本", "a ", "\xff", "a\xff", "%", "X, Y",
	"'", `\`, `a'b\c`, "_'x'", "\n", "\x00", " ", "�", "-1", "-9223372036854775808"}

func fact(ts ...ast.Term) ast.Literal { return ast.Pos(ast.Atom{Pred: "p", Args: ts}) }

// alikeFacts are pairs of unequal facts that rendered alike before names
// were quoted: each pair differs only in the kind of a term.
var alikeFacts = [][2]ast.Literal{
	{fact(ast.Int(1)), fact(ast.Sym("1"))},
	{fact(ast.Compound{Functor: "g", Args: []ast.Term{ast.Sym("x")}}), fact(ast.Sym("g(x)"))},
	{fact(ast.Sym("a"), ast.Sym("b")), fact(ast.Sym("a, b"))},
	{fact(ast.Int(math.MinInt64)), fact(ast.Sym("-9223372036854775808"))},
	{fact(ast.Var{Name: "x"}), fact(ast.Sym("x"))},
	{fact(ast.Var{Name: "X"}), fact(ast.Sym("X"))},
}

// TestReadsBackMatchesParser: each name, written as a symbol, a
// variable, a functor, a predicate and a module name, reads back as
// itself, and each pair of alike facts renders as two texts that read
// back kind-exactly.
func TestReadsBackMatchesParser(t *testing.T) {
	for _, name := range readBackNames {
		lit := ast.Neg(ast.Atom{Pred: name, Args: []ast.Term{
			ast.Sym(name), ast.Var{Name: name}, ast.Compound{Functor: name, Args: []ast.Term{ast.Sym(name)}}}})
		checkRoundTrip(t, lit, &ast.Rule{Head: lit.Complement(), Body: []ast.Literal{lit, lit.Complement()}}, name, "main")
	}
	for _, p := range alikeFacts {
		checkRoundTrip(t, p[0], ast.Fact(p[1]), "a", "b")
		checkApart(t, p[0], p[1])
	}
}

// FuzzTermRoundTrip builds two literals, a rule and two module names
// from the fuzz bytes (see termReader), with arbitrary byte strings for
// names and every int64, and requires that each renders as text the
// parser reads back as an equal value of the same kinds, and that
// unequal literals and names never render alike.
func FuzzTermRoundTrip(f *testing.F) {
	for _, name := range readBackNames {
		f.Add(encLit(true, name, encSym(name), encVar(name), encCompound(name, encInt(-1))) +
			encLit(false, "p", encSym(name)) +
			encLit(false, name, encVar(name)) + "\x01" + encLit(true, "q", encCompound(name, encSym(name))) +
			encName(name) + encName("main"))
	}
	for _, p := range alikeFacts {
		f.Add(encFact(p[0]) + encFact(p[1]) + encFact(p[1]) + "\x00" + encName("a") + encName("a b"))
	}
	f.Fuzz(func(t *testing.T, data string) {
		r := &termReader{data: data}
		l1, l2 := r.literal(), r.literal()
		rule := &ast.Rule{Head: r.literal()}
		for n := r.byte() % 3; n > 0; n-- {
			rule.Body = append(rule.Body, r.literal())
		}
		m1, m2 := r.name(), r.name()
		checkRoundTrip(t, l1, rule, m1, m2)
		checkApart(t, l1, l2)
		if (m1 == m2) != (ast.Name(m1) == ast.Name(m2)) {
			t.Fatalf("module names %q and %q render as %q and %q", m1, m2, ast.Name(m1), ast.Name(m2))
		}
	})
}

// checkRoundTrip parses the literal, the rule, and a program of the rule
// in component m1 (below m2, if they differ) back from their renderings.
func checkRoundTrip(t *testing.T, lit ast.Literal, rule *ast.Rule, m1, m2 string) {
	t.Helper()
	if got, err := ParseLiteral(lit.String()); err != nil || !got.Equal(lit) {
		t.Fatalf("literal %#v renders as %q, which reads back as %#v (%v)", lit, lit.String(), got, err)
	}
	if got, err := ParseRule(rule.String()); err != nil || !got.Equal(rule) {
		t.Fatalf("rule %#v renders as %q, which reads back as %#v (%v)", rule, rule.String(), got, err)
	}
	p := ast.NewOrderedProgram()
	if err := p.AddComponent(&ast.Component{Name: m1, Rules: []*ast.Rule{rule}}); err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		if err := p.AddComponent(&ast.Component{Name: m2}); err != nil {
			t.Fatal(err)
		}
		if err := p.AddEdge(m1, m2); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ParseProgram(p.String())
	if err != nil {
		t.Fatalf("program renders as %q, which does not parse: %v", p.String(), err)
	}
	if len(got.Components) != len(p.Components) || len(got.Edges) != len(p.Edges) {
		t.Fatalf("program renders as %q, which reads back as %q", p.String(), got.String())
	}
	for i, c := range p.Components {
		g := got.Components[i]
		if g.Name != c.Name || len(g.Rules) != len(c.Rules) || len(c.Rules) > 0 && !g.Rules[0].Equal(c.Rules[0]) {
			t.Fatalf("module %q renders as %q, which reads back as %q", c.Name, p.String(), got.String())
		}
	}
	if len(p.Edges) > 0 && got.Edges[0] != p.Edges[0] {
		t.Fatalf("order %v renders as %q, which reads back as %v", p.Edges[0], p.String(), got.Edges[0])
	}
}

// checkApart requires that two literals render alike only if equal.
func checkApart(t *testing.T, a, b ast.Literal) {
	t.Helper()
	if a.Equal(b) != (a.String() == b.String()) {
		t.Fatalf("%#v and %#v render as %q and %q", a, b, a.String(), b.String())
	}
}

// termReader decodes values from fuzz bytes. A literal is a sign byte
// (odd: negative), a name, an arity byte (mod 4) and that many terms. A
// name is a length byte (mod 32) and that many bytes. A term is a tag —
// 's' symbol, 'v' variable, 'i' integer (8 bytes, big-endian), 'c'
// compound (a functor, an arity byte, 1 + arity mod 3 terms; past depth
// 3 a symbol) — any other tag reads as the symbol a. Past the end every
// byte reads as 0.
type termReader struct {
	data  string
	depth int
}

func (r *termReader) byte() byte {
	if r.data == "" {
		return 0
	}
	c := r.data[0]
	r.data = r.data[1:]
	return c
}

func (r *termReader) name() string {
	n := min(int(r.byte()%32), len(r.data))
	s := r.data[:n]
	r.data = r.data[n:]
	return s
}

func (r *termReader) literal() ast.Literal {
	neg := r.byte()%2 == 1
	a := ast.Atom{Pred: r.name()}
	for n := r.byte() % 4; n > 0; n-- {
		a.Args = append(a.Args, r.term())
	}
	return ast.Literal{Neg: neg, Atom: a}
}

func (r *termReader) term() ast.Term {
	switch r.byte() {
	case 's':
		return ast.Sym(r.name())
	case 'v':
		return ast.Var{Name: r.name()}
	case 'i':
		var b [8]byte
		for i := range b {
			b[i] = r.byte()
		}
		return ast.Int(int64(binary.BigEndian.Uint64(b[:])))
	case 'c':
		c := ast.Compound{Functor: r.name()}
		if r.depth >= 3 {
			return ast.Sym(c.Functor)
		}
		r.depth++
		for n := 1 + r.byte()%3; n > 0; n-- {
			c.Args = append(c.Args, r.term())
		}
		r.depth--
		return c
	}
	return ast.Sym("a")
}

// The encoders write seeds in termReader's format; names are at most 31
// bytes.
func encName(s string) string { return string([]byte{byte(len(s))}) + s }
func encSym(s string) string  { return "s" + encName(s) }
func encVar(s string) string  { return "v" + encName(s) }
func encInt(i int64) string   { return "i" + string(binary.BigEndian.AppendUint64(nil, uint64(i))) }

func encCompound(f string, args ...string) string {
	return "c" + encName(f) + string([]byte{byte(len(args) - 1)}) + strings.Join(args, "")
}

func encLit(neg bool, pred string, args ...string) string {
	sign := "\x00"
	if neg {
		sign = "\x01"
	}
	return sign + encName(pred) + string([]byte{byte(len(args))}) + strings.Join(args, "")
}

func encTerm(t ast.Term) string {
	switch t := t.(type) {
	case ast.Sym:
		return encSym(string(t))
	case ast.Var:
		return encVar(t.Name)
	case ast.Int:
		return encInt(int64(t))
	}
	c := t.(ast.Compound)
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = encTerm(a)
	}
	return encCompound(c.Functor, args...)
}

func encFact(l ast.Literal) string {
	args := make([]string, len(l.Atom.Args))
	for i, a := range l.Atom.Args {
		args[i] = encTerm(a)
	}
	return encLit(l.Neg, l.Atom.Pred, args...)
}
