// Package lexer tokenises the .olp surface syntax for ordered logic
// programs. The syntax is Prolog-like:
//
//	% line comment
//	module c2 {
//	  bird(penguin).
//	  fly(X) :- bird(X).
//	  -ground_animal(X) :- bird(X).
//	}
//	module c1 extends c2 {
//	  ground_animal(penguin).
//	  -fly(X) :- ground_animal(X).
//	}
//
// Identifiers starting with a letter that is not upper case are names:
// predicates, functors, constants and modules. Identifiers starting with
// an upper-case letter or '_' are variables. Keywords (module, extends,
// order, not, mod) are contextual and resolved by the parser.
//
// Any other name is written quoted, Prolog-style: 'a b', '1', 'g(x)',
// 'X', and a pair of quotes for the empty name. A quoted name is never a
// keyword. Inside the quotes Go's escapes hold (strconv.UnquoteChar): \\
// is a backslash, \' a quote and \xHH the byte with hex value HH. A
// variable whose name is not a variable token is written _'name'. IsName
// and IsVariable say which names need no quotes: they are the identifier
// grammar the printer (package ast) writes by.
package lexer

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind classifies a token.
type Kind int

// Token kinds.
const (
	EOF      Kind = iota
	Ident         // lower-case identifier: predicates, constants, keywords
	Variable      // upper-case or '_' identifier
	Integer       // decimal integer literal
	LParen        // (
	RParen        // )
	LBrace        // {
	RBrace        // }
	Comma         // ,
	Dot           // .
	Implies       // :-
	Query         // ?-
	Minus         // -
	Plus          // +
	Star          // *
	Slash         // /
	Lt            // <
	Le            // <=
	Gt            // >
	Ge            // >=
	Eq            // =
	Ne            // !=
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case EOF:
		return "end of input"
	case Ident:
		return "identifier"
	case Variable:
		return "variable"
	case Integer:
		return "integer"
	case LParen:
		return "'('"
	case RParen:
		return "')'"
	case LBrace:
		return "'{'"
	case RBrace:
		return "'}'"
	case Comma:
		return "','"
	case Dot:
		return "'.'"
	case Implies:
		return "':-'"
	case Query:
		return "'?-'"
	case Minus:
		return "'-'"
	case Plus:
		return "'+'"
	case Star:
		return "'*'"
	case Slash:
		return "'/'"
	case Lt:
		return "'<'"
	case Le:
		return "'<='"
	case Gt:
		return "'>'"
	case Ge:
		return "'>='"
	case Eq:
		return "'='"
	case Ne:
		return "'!='"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Token is one lexical token with its source position (1-based). A
// quoted name's Text is the name it spells, with Quoted set.
type Token struct {
	Kind   Kind
	Text   string
	Quoted bool
	Line   int
	Col    int
}

// String renders the token for error messages.
func (t Token) String() string {
	if t.Text != "" && (t.Kind == Ident || t.Kind == Variable || t.Kind == Integer) {
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	}
	return t.Kind.String()
}

// Error is a lexical error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

// Lexer scans an input string into tokens.
type Lexer struct {
	src       string
	pos       int
	line, col int
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokens scans the entire input, returning all tokens (excluding EOF).
func Tokens(src string) ([]Token, error) {
	lx := New(src)
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == EOF {
			return out, nil
		}
		out = append(out, t)
	}
}

func (l *Lexer) peek() (rune, int) {
	if l.pos >= len(l.src) {
		return 0, 0
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

func (l *Lexer) advance() rune {
	r, w := l.peek()
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) skipSpaceAndComments() {
	for {
		r, _ := l.peek()
		switch {
		case r == '%':
			// A comment ends at a newline, at the end of input, and at a
			// NUL, which Next then reports.
			for {
				r, _ = l.peek()
				if r == 0 || r == '\n' {
					break
				}
				l.advance()
			}
		case unicode.IsSpace(r):
			l.advance()
		default:
			return
		}
	}
}

// IsName reports whether the lexer reads s, unquoted, as the name s
// wherever a name stands: one identifier whose first letter is not upper
// case, and not "not", which the parser reads as negation before a body
// item.
func IsName(s string) bool {
	if s == "" || s == "not" {
		return false
	}
	i := 0
	if 'a' <= s[0] && s[0] <= 'z' { // ASCII fast path
		for i = 1; i < len(s) && asciiIdent[s[i]]; i++ {
		}
	}
	if i == len(s) {
		return true
	}
	n, k := ident(s)
	return n == len(s) && k == Ident
}

// asciiIdent holds the ASCII bytes ident lets follow an identifier's
// first rune: letters, digits and '_'.
var asciiIdent = func() (t [256]bool) {
	for c := 0; c < utf8.RuneSelf; c++ {
		n, _ := ident("a" + string(rune(c)))
		t[c] = n == 2
	}
	return t
}()

// IsVariable reports whether the lexer reads s, unquoted, as the variable
// s: one identifier starting with an upper-case letter or '_'.
func IsVariable(s string) bool {
	n, k := ident(s)
	return n == len(s) && k == Variable
}

// ident returns the length of the identifier s starts with (0: none) —
// a letter or '_', then letters, digits and '_' — and its kind: Variable
// if it starts with an upper-case letter or '_', else Ident.
func ident(s string) (int, Kind) {
	k := Ident
	for i, r := range s {
		if !(unicode.IsLetter(r) || r == '_' || i > 0 && unicode.IsDigit(r)) {
			return i, k
		}
		if i == 0 && (r == '_' || unicode.IsUpper(r)) {
			k = Variable
		}
	}
	return len(s), k
}

// Next returns the next token, or an EOF token at end of input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	r, _ := l.peek()
	mk := func(k Kind, text string) Token { return Token{Kind: k, Text: text, Line: line, Col: col} }
	switch {
	case l.pos >= len(l.src): // a NUL is not the end: it falls through to the error below
		return mk(EOF, ""), nil
	case unicode.IsDigit(r):
		start := l.pos
		for {
			r, _ := l.peek()
			if !unicode.IsDigit(r) {
				break
			}
			l.advance()
		}
		return mk(Integer, l.src[start:l.pos]), nil
	case r == '\'':
		return l.quoted(Ident, line, col)
	case strings.HasPrefix(l.src[l.pos:], "_'"):
		l.advance()
		return l.quoted(Variable, line, col)
	}
	if n, k := ident(l.src[l.pos:]); n > 0 {
		text := l.src[l.pos : l.pos+n]
		l.pos += n
		l.col += utf8.RuneCountInString(text)
		return mk(k, text), nil
	}
	l.advance()
	switch r {
	case '(':
		return mk(LParen, "("), nil
	case ')':
		return mk(RParen, ")"), nil
	case '{':
		return mk(LBrace, "{"), nil
	case '}':
		return mk(RBrace, "}"), nil
	case ',':
		return mk(Comma, ","), nil
	case '.':
		return mk(Dot, "."), nil
	case '+':
		return mk(Plus, "+"), nil
	case '*':
		return mk(Star, "*"), nil
	case '/':
		return mk(Slash, "/"), nil
	case '-':
		return mk(Minus, "-"), nil
	case '~': // accepted synonym for '-' (classical negation)
		return mk(Minus, "~"), nil
	case '=':
		return mk(Eq, "="), nil
	case '<':
		if n, _ := l.peek(); n == '=' {
			l.advance()
			return mk(Le, "<="), nil
		}
		return mk(Lt, "<"), nil
	case '>':
		if n, _ := l.peek(); n == '=' {
			l.advance()
			return mk(Ge, ">="), nil
		}
		return mk(Gt, ">"), nil
	case '!':
		if n, _ := l.peek(); n == '=' {
			l.advance()
			return mk(Ne, "!="), nil
		}
		return Token{}, &Error{line, col, "unexpected '!' (did you mean '!=')"}
	case ':':
		if n, _ := l.peek(); n == '-' {
			l.advance()
			return mk(Implies, ":-"), nil
		}
		return Token{}, &Error{line, col, "unexpected ':' (did you mean ':-')"}
	case '?':
		if n, _ := l.peek(); n == '-' {
			l.advance()
			return mk(Query, "?-"), nil
		}
		return Token{}, &Error{line, col, "unexpected '?' (did you mean '?-')"}
	}
	return Token{}, &Error{line, col, fmt.Sprintf("unexpected character %q", r)}
}

// quoted scans a quoted name from its opening quote into a token of kind
// k.
func (l *Lexer) quoted(k Kind, line, col int) (Token, error) {
	l.advance() // the opening quote
	var name []byte
	for rest := l.src[l.pos:]; !strings.HasPrefix(rest, "'"); rest = l.src[l.pos:] {
		if rest == "" {
			return Token{}, &Error{line, col, "unterminated quoted name"}
		}
		r, multibyte, tail, err := strconv.UnquoteChar(rest, '\'')
		if err != nil {
			return Token{}, &Error{l.line, l.col, "bad escape in quoted name"}
		}
		if multibyte {
			name = utf8.AppendRune(name, r)
		} else {
			name = append(name, byte(r))
		}
		for end := len(l.src) - len(tail); l.pos < end; {
			l.advance()
		}
	}
	l.advance() // the closing quote
	return Token{Kind: k, Text: string(name), Quoted: true, Line: line, Col: col}, nil
}
