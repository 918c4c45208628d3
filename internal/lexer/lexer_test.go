package lexer

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokensBasicClause(t *testing.T) {
	toks, err := Tokens(`fly(X) :- bird(X).`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{Ident, LParen, Variable, RParen, Implies, Ident, LParen, Variable, RParen, Dot}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
	if toks[0].Text != "fly" || toks[2].Text != "X" {
		t.Errorf("token texts wrong: %v", toks)
	}
}

func TestTokensOperators(t *testing.T) {
	toks, err := Tokens(`< <= > >= = != + - * / , . { } ( ) :- ?- ~`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{Lt, Le, Gt, Ge, Eq, Ne, Plus, Minus, Star, Slash,
		Comma, Dot, LBrace, RBrace, LParen, RParen, Implies, Query, Minus}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVariablesVsIdents(t *testing.T) {
	toks, err := Tokens(`foo Foo _bar bAR x1 X1`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{Ident, Variable, Variable, Ident, Ident, Variable}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("%q classified as %v, want %v", toks[i].Text, toks[i].Kind, k)
		}
	}
}

func TestIntegers(t *testing.T) {
	toks, err := Tokens(`42 0 -7`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{Integer, Integer, Minus, Integer}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v (lexer emits Minus then Integer)", i, got[i], want[i])
		}
	}
}

func TestComments(t *testing.T) {
	toks, err := Tokens("a. % comment with :- symbols\nb. % trailing")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 {
		t.Fatalf("got %d tokens, want 4: %v", len(toks), toks)
	}
	if toks[2].Text != "b" {
		t.Errorf("comment not skipped: %v", toks)
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokens("a.\n  b.")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("first token at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[2].Line != 2 || toks[2].Col != 3 {
		t.Errorf("b at %d:%d, want 2:3", toks[2].Line, toks[2].Col)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"@", "a !b", "a : b", "a ? b"} {
		if _, err := Tokens(src); err == nil {
			t.Errorf("no error for %q", src)
		} else if le, ok := err.(*Error); !ok {
			t.Errorf("error for %q is %T, want *Error", src, err)
		} else if le.Line != 1 {
			t.Errorf("error position for %q: %v", src, le)
		}
	}
}

func TestUnicodeIdentifiers(t *testing.T) {
	toks, err := Tokens("père(andré).")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != Ident || toks[0].Text != "père" {
		t.Errorf("unicode ident mislexed: %v", toks[0])
	}
}

func TestKindStringsCovered(t *testing.T) {
	for k := EOF; k <= Ne; k++ {
		if s := k.String(); strings.HasPrefix(s, "Kind(") {
			t.Errorf("Kind %d has no name", k)
		}
	}
}

func TestTokenString(t *testing.T) {
	toks, err := Tokens(`foo 42 X <=`)
	if err != nil {
		t.Fatal(err)
	}
	if got := toks[0].String(); got != `identifier "foo"` {
		t.Errorf("Token.String = %q", got)
	}
	if got := toks[3].String(); got != "'<='" {
		t.Errorf("Token.String = %q", got)
	}
}

// Quoted names: a quoted name is a name token with Quoted set, whatever
// it spells (a keyword, a variable, digits, nothing), _'...' is a
// variable, Go's escapes are read, and a bad or unterminated quote is a
// positioned error.
func TestQuotedNames(t *testing.T) {
	toks, err := Tokens(`'a b'('1', _'x', 'not', '', 'it\'s \\ \xff', 'é')`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Token{{Kind: Ident, Text: "a b"}, {Kind: LParen}, {Kind: Ident, Text: "1"}, {Kind: Comma},
		{Kind: Variable, Text: "x"}, {Kind: Comma}, {Kind: Ident, Text: "not"}, {Kind: Comma}, {Kind: Ident, Text: ""}, {Kind: Comma},
		{Kind: Ident, Text: "it's \\ \xff"}, {Kind: Comma}, {Kind: Ident, Text: "é"}, {Kind: RParen}}
	if len(toks) != len(want) {
		t.Fatalf("%d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		got := toks[i]
		quoted := w.Kind == Ident || w.Kind == Variable
		if got.Kind != w.Kind || quoted && (got.Text != w.Text || !got.Quoted) {
			t.Errorf("token %d = %v %q (quoted %v), want %v %q", i, got.Kind, got.Text, got.Quoted, w.Kind, w.Text)
		}
	}
	if toks[13].Col != 49 {
		t.Errorf("')' after the quoted names at column %d, want 49", toks[13].Col)
	}
	for _, src := range []string{"'a", `'a\q'`, `'\x4'`, "_'x"} {
		if _, err := Tokens(src); err == nil {
			t.Errorf("no error for %q", src)
		} else if _, ok := err.(*Error); !ok {
			t.Errorf("error for %q is %T, want *Error", src, err)
		}
	}
}

// IsName and IsVariable agree with the lexer: a name needs no quotes
// exactly when it lexes as one identifier of its kind (and, for a name,
// is not the keyword not).
func TestIsNameMatchesLexer(t *testing.T) {
	for _, s := range []string{"a", "c0", "aB_9", "é", "père", "X", "_", "_x", "Ça", "1", "1a", "", "a b", "a-b", "not", "mod", "\xff", "a\xff", "g(x)", "日本"} {
		toks, err := Tokens(s)
		one := err == nil && len(toks) == 1 && toks[0].Text == s
		if got, want := IsName(s), one && toks[0].Kind == Ident && s != "not"; got != want {
			t.Errorf("IsName(%q) = %v, want %v", s, got, want)
		}
		if got, want := IsVariable(s), one && toks[0].Kind == Variable; got != want {
			t.Errorf("IsVariable(%q) = %v, want %v", s, got, want)
		}
	}
}
