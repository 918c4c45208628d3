package ast

import "strings"

// Atom is a predicate applied to terms: p(t1,...,tn). A propositional atom
// has no arguments.
type Atom struct {
	Pred string
	Args []Term
}

// String renders the atom in the surface syntax.
func (a Atom) String() string {
	if len(a.Args) == 0 {
		return Name(a.Pred)
	}
	var b strings.Builder
	b.Grow(a.len())
	a.write(&b)
	return b.String()
}

// len returns the length in bytes of the atom's rendering.
func (a Atom) len() int {
	n := NameLen(a.Pred)
	if len(a.Args) == 0 {
		return n
	}
	n += 2 * len(a.Args) // the parentheses and the ", "s
	for _, t := range a.Args {
		n += TermLen(t)
	}
	return n
}

// write writes the atom's rendering to b.
func (a Atom) write(b *strings.Builder) {
	WriteName(b, a.Pred)
	if len(a.Args) == 0 {
		return
	}
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		WriteTerm(b, t)
	}
	b.WriteByte(')')
}

// Equal reports structural equality of atoms.
func (a Atom) Equal(o Atom) bool {
	if a.Pred != o.Pred || len(a.Args) != len(o.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// Ground reports whether every argument of the atom is ground.
func (a Atom) Ground() bool {
	for _, t := range a.Args {
		if !t.Ground() {
			return false
		}
	}
	return true
}

// Vars appends the variables of the atom to vs in order of first occurrence.
func (a Atom) Vars(vs []Var) []Var {
	for _, t := range a.Args {
		vs = TermVars(t, vs)
	}
	return vs
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// PredKey identifies a predicate by name and arity, e.g. "parent/2".
type PredKey struct {
	Name  string
	Arity int
}

// Key returns the atom's predicate key.
func (a Atom) Key() PredKey { return PredKey{a.Pred, len(a.Args)} }

// String renders the key in the conventional name/arity form.
func (k PredKey) String() string {
	var b strings.Builder
	b.WriteString(k.Name)
	b.WriteByte('/')
	// small arities only; avoid fmt for speed in hot printing paths
	if k.Arity >= 10 {
		b.WriteByte(byte('0' + k.Arity/10))
	}
	b.WriteByte(byte('0' + k.Arity%10))
	return b.String()
}

// Literal is an atom or its classical negation. The paper writes the
// negation as ¬A; the surface syntax writes -A.
type Literal struct {
	Neg  bool
	Atom Atom
}

// Pos returns the positive literal on atom a.
func Pos(a Atom) Literal { return Literal{Neg: false, Atom: a} }

// Neg returns the negative literal on atom a.
func Neg(a Atom) Literal { return Literal{Neg: true, Atom: a} }

// String renders the literal in the surface syntax.
func (l Literal) String() string {
	if !l.Neg {
		return l.Atom.String()
	}
	var b strings.Builder
	b.Grow(l.len())
	l.write(&b)
	return b.String()
}

// len returns the length in bytes of the literal's rendering.
func (l Literal) len() int {
	if l.Neg {
		return 1 + l.Atom.len()
	}
	return l.Atom.len()
}

// write writes the literal's rendering to b.
func (l Literal) write(b *strings.Builder) {
	if l.Neg {
		b.WriteByte('-')
	}
	l.Atom.write(b)
}

// Equal reports structural equality of literals.
func (l Literal) Equal(o Literal) bool { return l.Neg == o.Neg && l.Atom.Equal(o.Atom) }

// Complement returns the complementary literal (A <-> -A).
func (l Literal) Complement() Literal { return Literal{Neg: !l.Neg, Atom: l.Atom} }

// Ground reports whether the underlying atom is ground.
func (l Literal) Ground() bool { return l.Atom.Ground() }

// Vars appends the variables of the literal to vs.
func (l Literal) Vars(vs []Var) []Var { return l.Atom.Vars(vs) }

// CompareAtoms orders ground atoms canonically: by predicate name, then
// arity, then arguments.
func CompareAtoms(a, b Atom) int {
	if c := strings.Compare(a.Pred, b.Pred); c != 0 {
		return c
	}
	if c := len(a.Args) - len(b.Args); c != 0 {
		return c
	}
	for i := range a.Args {
		if c := CompareTerms(a.Args[i], b.Args[i]); c != 0 {
			return c
		}
	}
	return 0
}

// CompareLiterals orders literals for canonical model printing: by
// predicate name, then arity, then arguments, positives before negatives.
func CompareLiterals(a, b Literal) int {
	if c := CompareAtoms(a.Atom, b.Atom); c != 0 {
		return c
	}
	switch {
	case !a.Neg && b.Neg:
		return -1
	case a.Neg && !b.Neg:
		return 1
	}
	return 0
}
