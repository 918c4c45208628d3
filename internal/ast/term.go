// Package ast defines the abstract syntax of ordered logic programs:
// terms, atoms, literals, rules, components and ordered programs, following
// the definitions of Laenens, Saccà and Vermeir, "Extending Logic
// Programming" (SIGMOD 1990).
//
// A term is a variable, a constant (symbolic or integer) or a compound
// f(t1,...,tn). An atom is p(t1,...,tn); a literal is an atom or its
// classical negation. A rule is Head <- Body where the head may be a
// negative literal (the paper's "negative rule"). A component is a named
// set of rules; an ordered program is a finite partially-ordered set of
// components, the order being generated by "extends" edges (child < parent:
// the child is the more specific component and inherits the parent's rules).
package ast

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/lexer"
)

// Term is a logical term: a Var, a Sym, an Int or a Compound.
type Term interface {
	fmt.Stringer

	// Equal reports structural equality with another term.
	Equal(Term) bool
	// Ground reports whether the term contains no variables.
	Ground() bool

	isTerm()
}

// Var is a logical variable. By convention variable names start with an
// upper-case letter or underscore in the surface syntax; any other name
// renders as _'name'.
type Var struct {
	Name string
}

// Sym is a symbolic constant, such as penguin or mimmo.
type Sym string

// Int is an integer constant. Integers are the domain of the comparison
// builtins (see Builtin).
type Int int64

// Compound is a function term f(t1,...,tn) with n >= 1.
type Compound struct {
	Functor string
	Args    []Term
}

func (Var) isTerm()      {}
func (Sym) isTerm()      {}
func (Int) isTerm()      {}
func (Compound) isTerm() {}

// String returns the variable name, quoted after '_' unless it is a
// variable token.
func (v Var) String() string {
	if lexer.IsVariable(v.Name) {
		return v.Name
	}
	return string(appendVar(nil, v.Name))
}

// String returns the constant symbol, quoted unless it is a name token.
func (s Sym) String() string { return Name(string(s)) }

// String returns the decimal rendering of the integer.
func (i Int) String() string { return fmt.Sprintf("%d", int64(i)) }

// String renders the compound in functional notation.
func (c Compound) String() string {
	var b strings.Builder
	b.Grow(TermLen(c))
	WriteTerm(&b, c)
	return b.String()
}

// TermLen returns the length in bytes of the term's rendering (String),
// for presizing a builder the term is written into.
func TermLen(t Term) int {
	switch t := t.(type) {
	case Var:
		var buf [64]byte
		return len(appendVar(buf[:0], t.Name))
	case Sym:
		return NameLen(string(t))
	case Int:
		var d [20]byte
		return len(strconv.AppendInt(d[:0], int64(t), 10))
	}
	c := t.(Compound)
	n := NameLen(c.Functor) + 2*len(c.Args) // the parentheses and the ", "s
	for _, a := range c.Args {
		n += TermLen(a)
	}
	return n
}

// WriteTerm writes the term's rendering (String) to b, without building
// an intermediate string per term.
func WriteTerm(b *strings.Builder, t Term) {
	switch t := t.(type) {
	case Var:
		var buf [64]byte
		b.Write(appendVar(buf[:0], t.Name))
	case Sym:
		WriteName(b, string(t))
	case Int:
		var d [20]byte
		b.Write(strconv.AppendInt(d[:0], int64(t), 10))
	case Compound:
		WriteName(b, t.Functor)
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			WriteTerm(b, a)
		}
		b.WriteByte(')')
	}
}

// The name writer. Symbols, functors, predicates and module names render
// bare when the lexer reads them back as that one name (lexer.IsName),
// and otherwise quoted: 'a b', '1', 'g(x)', 'X', ''. Inside the quotes a
// quote or backslash is escaped with a backslash, and each byte of an
// invalid or unprintable rune is written \xHH, so a rendering is valid
// UTF-8 (WAL records are JSON) and every rendering reads back as what
// it renders.

// Name returns the name's rendering.
func Name(name string) string {
	if lexer.IsName(name) {
		return name
	}
	return string(appendQuoted(nil, name))
}

// NameLen returns the length in bytes of the name's rendering.
func NameLen(name string) int {
	if lexer.IsName(name) {
		return len(name)
	}
	var buf [64]byte
	return len(appendQuoted(buf[:0], name))
}

// WriteName writes the name's rendering to b.
func WriteName(b *strings.Builder, name string) {
	if lexer.IsName(name) {
		b.WriteString(name)
		return
	}
	var buf [64]byte
	b.Write(appendQuoted(buf[:0], name))
}

// appendVar appends a variable's rendering: its name if that is a
// variable token, else '_' and the name quoted.
func appendVar(dst []byte, name string) []byte {
	if lexer.IsVariable(name) {
		return append(dst, name...)
	}
	return appendQuoted(append(dst, '_'), name)
}

func appendQuoted(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '\'')
	for i := 0; i < len(s); {
		r, w := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == '\'' || r == '\\':
			dst = append(dst, '\\', byte(r))
		case r == utf8.RuneError && w == 1 || !unicode.IsPrint(r):
			for _, c := range []byte(s[i : i+w]) {
				dst = append(dst, '\\', 'x', hex[c>>4], hex[c&15])
			}
		default:
			dst = append(dst, s[i:i+w]...)
		}
		i += w
	}
	return append(dst, '\'')
}

// Equal reports whether t is the same variable.
func (v Var) Equal(t Term) bool {
	o, ok := t.(Var)
	return ok && o.Name == v.Name
}

// Equal reports whether t is the same symbolic constant.
func (s Sym) Equal(t Term) bool {
	o, ok := t.(Sym)
	return ok && o == s
}

// Equal reports whether t is the same integer constant.
func (i Int) Equal(t Term) bool {
	o, ok := t.(Int)
	return ok && o == i
}

// Equal reports whether t is a structurally identical compound.
func (c Compound) Equal(t Term) bool {
	o, ok := t.(Compound)
	if !ok || o.Functor != c.Functor || len(o.Args) != len(c.Args) {
		return false
	}
	for i := range c.Args {
		if !c.Args[i].Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// Ground reports false: a variable is never ground.
func (Var) Ground() bool { return false }

// Ground reports true: constants are ground.
func (Sym) Ground() bool { return true }

// Ground reports true: integers are ground.
func (Int) Ground() bool { return true }

// Ground reports whether every argument is ground.
func (c Compound) Ground() bool {
	for _, a := range c.Args {
		if !a.Ground() {
			return false
		}
	}
	return true
}

// TermVars appends the variables occurring in t to vs, in left-to-right
// order of first occurrence, and returns the extended slice.
func TermVars(t Term, vs []Var) []Var {
	switch t := t.(type) {
	case Var:
		for _, v := range vs {
			if v.Name == t.Name {
				return vs
			}
		}
		return append(vs, t)
	case Compound:
		for _, a := range t.Args {
			vs = TermVars(a, vs)
		}
	}
	return vs
}

// TermDepth returns the nesting depth of t: 0 for variables and constants,
// 1 + max arg depth for compounds.
func TermDepth(t Term) int {
	c, ok := t.(Compound)
	if !ok {
		return 0
	}
	max := 0
	for _, a := range c.Args {
		if d := TermDepth(a); d > max {
			max = d
		}
	}
	return 1 + max
}

// TermSize returns the number of symbol occurrences in t.
func TermSize(t Term) int {
	c, ok := t.(Compound)
	if !ok {
		return 1
	}
	n := 1
	for _, a := range c.Args {
		n += TermSize(a)
	}
	return n
}

// CompareTerms defines a total order on ground terms, used for canonical
// printing of models: integers before symbols before compounds, then by
// value/name/arity/args. The result is negative, zero or positive in the
// manner of strings.Compare. Variables sort after all ground terms by name.
func CompareTerms(a, b Term) int {
	if as, ok := a.(Sym); ok { // the common case, without the rank switch
		if bs, ok := b.(Sym); ok {
			return strings.Compare(string(as), string(bs))
		}
	}
	ra, rb := termRank(a), termRank(b)
	if ra != rb {
		return ra - rb
	}
	switch a := a.(type) {
	case Int:
		bi := b.(Int)
		switch {
		case a < bi:
			return -1
		case a > bi:
			return 1
		}
		return 0
	case Sym:
		return strings.Compare(string(a), string(b.(Sym)))
	case Compound:
		bc := b.(Compound)
		if c := strings.Compare(a.Functor, bc.Functor); c != 0 {
			return c
		}
		if c := len(a.Args) - len(bc.Args); c != 0 {
			return c
		}
		for i := range a.Args {
			if c := CompareTerms(a.Args[i], bc.Args[i]); c != 0 {
				return c
			}
		}
		return 0
	case Var:
		return strings.Compare(a.Name, b.(Var).Name)
	}
	return 0
}

func termRank(t Term) int {
	switch t.(type) {
	case Int:
		return 0
	case Sym:
		return 1
	case Compound:
		return 2
	case Var:
		return 3
	}
	return 4
}
