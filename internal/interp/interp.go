package interp

import (
	"sort"
	"strings"

	"repro/internal/ast"
)

// Value is the three-valued truth value of a ground atom under an
// interpretation: True when the atom is in I, False when its complement is,
// Undef otherwise.
type Value int

// Truth values with the paper's ordering False < Undef < True.
const (
	False Value = iota
	Undef
	True
)

// String names the value (T/U/F as in the paper's §3).
func (v Value) String() string {
	switch v {
	case True:
		return "T"
	case False:
		return "F"
	default:
		return "U"
	}
}

// Interp is a consistent set of ground literals over an atom table,
// represented as two bitsets (atoms asserted true, atoms asserted false).
type Interp struct {
	tab *Table
	pos *Bitset
	neg *Bitset
}

// New returns the empty interpretation over tab's current atoms.
func New(tab *Table) *Interp { return NewSized(tab, tab.Len()) }

// NewSized returns the empty interpretation over tab's first n atoms: the
// Herbrand base of a version that pinned the table at n atoms, unaffected
// by atoms later versions intern into the shared table.
func NewSized(tab *Table, n int) *Interp {
	return &Interp{tab: tab, pos: NewBitset(n), neg: NewBitset(n)}
}

// FromBitsets returns the interpretation holding the atoms of pos true and
// those of neg false. It takes both bitsets over; they must be disjoint.
func FromBitsets(tab *Table, pos, neg *Bitset) *Interp {
	return &Interp{tab: tab, pos: pos, neg: neg}
}

// Value returns the truth value of atom id.
func (in *Interp) Value(id AtomID) Value {
	switch {
	case in.pos.Get(int(id)):
		return True
	case in.neg.Get(int(id)):
		return False
	}
	return Undef
}

// HasLit reports whether the literal is a member of the interpretation.
func (in *Interp) HasLit(l Lit) bool {
	if l.Neg() {
		return in.neg.Get(int(l.Atom()))
	}
	return in.pos.Get(int(l.Atom()))
}

// AddLit inserts a literal. It returns false (and does not insert) when the
// complementary literal is already present, which would make the
// interpretation inconsistent.
func (in *Interp) AddLit(l Lit) bool {
	a := int(l.Atom())
	if l.Neg() {
		if in.pos.Get(a) {
			return false
		}
		in.neg.Set(a)
	} else {
		if in.neg.Get(a) {
			return false
		}
		in.pos.Set(a)
	}
	return true
}

// RemoveLit removes a literal if present.
func (in *Interp) RemoveLit(l Lit) {
	a := int(l.Atom())
	if l.Neg() {
		in.neg.Clear(a)
	} else {
		in.pos.Clear(a)
	}
}

// Len returns the number of literals in the interpretation.
func (in *Interp) Len() int { return in.pos.Count() + in.neg.Count() }

// NumAtoms returns the size of the Herbrand base the interpretation was
// built over.
func (in *Interp) NumAtoms() int { return in.pos.Cap() }

// Undefined returns the ids of atoms with value Undef (the paper's Ī).
func (in *Interp) Undefined() []AtomID {
	var out []AtomID
	for i, n := 0, in.NumAtoms(); i < n; i++ {
		if !in.pos.Get(i) && !in.neg.Get(i) {
			out = append(out, AtomID(i))
		}
	}
	return out
}

// Total reports whether no atom is undefined.
func (in *Interp) Total() bool {
	return in.pos.Count()+in.neg.Count() == in.NumAtoms()
}

// Clone returns an independent copy.
func (in *Interp) Clone() *Interp {
	return &Interp{tab: in.tab, pos: in.pos.Clone(), neg: in.neg.Clone()}
}

// CloneSized returns an independent copy over the table's first n atoms:
// atoms at or past the original size start undefined, and atoms at or past
// n are dropped.
func (in *Interp) CloneSized(n int) *Interp {
	return &Interp{tab: in.tab, pos: in.pos.CloneSized(n), neg: in.neg.CloneSized(n)}
}

// CopyFrom overwrites in with the contents of o (same table required).
func (in *Interp) CopyFrom(o *Interp) {
	in.pos.CopyFrom(o.pos)
	in.neg.CopyFrom(o.neg)
}

// Equal reports whether two interpretations contain the same literals.
func (in *Interp) Equal(o *Interp) bool {
	return in.pos.Equal(o.pos) && in.neg.Equal(o.neg)
}

// SubsetOf reports whether every literal of in is in o.
func (in *Interp) SubsetOf(o *Interp) bool {
	return in.pos.SubsetOf(o.pos) && in.neg.SubsetOf(o.neg)
}

// ProperSubsetOf reports whether in ⊂ o.
func (in *Interp) ProperSubsetOf(o *Interp) bool {
	return in.SubsetOf(o) && !in.Equal(o)
}

// UnionWith adds every literal of o to in. It returns false if the union
// would be inconsistent (in is then partially modified).
func (in *Interp) UnionWith(o *Interp) bool {
	in.pos.UnionWith(o.pos)
	in.neg.UnionWith(o.neg)
	return !in.pos.Intersects(in.neg)
}

// IntersectWith keeps only literals present in both.
func (in *Interp) IntersectWith(o *Interp) {
	in.pos.IntersectWith(o.pos)
	in.neg.IntersectWith(o.neg)
}

// Consistent reports whether no atom is asserted both true and false.
func (in *Interp) Consistent() bool { return !in.pos.Intersects(in.neg) }

// Lits returns all member literals sorted by atom id, positives first per
// atom.
func (in *Interp) Lits() []Lit {
	out := make([]Lit, 0, in.Len())
	for i, n := 0, in.NumAtoms(); i < n; i++ {
		if in.pos.Get(i) {
			out = append(out, MkLit(AtomID(i), false))
		}
		if in.neg.Get(i) {
			out = append(out, MkLit(AtomID(i), true))
		}
	}
	return out
}

// PosAtoms returns the ids of atoms asserted true.
func (in *Interp) PosAtoms() []AtomID {
	bits := in.pos.Bits()
	out := make([]AtomID, len(bits))
	for i, b := range bits {
		out[i] = AtomID(b)
	}
	return out
}

// Literals returns the member literals as AST literals, sorted canonically
// for stable printing.
func (in *Interp) Literals() []ast.Literal {
	lits := in.Lits()
	out := make([]ast.Literal, len(lits))
	for i, l := range lits {
		out[i] = ast.Literal{Neg: l.Neg(), Atom: in.tab.Atom(l.Atom())}
	}
	sort.Slice(out, func(i, j int) bool { return ast.CompareLiterals(out[i], out[j]) < 0 })
	return out
}

// String renders the interpretation as a sorted literal set.
func (in *Interp) String() string {
	lits := in.Literals()
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range lits {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(l.String())
	}
	b.WriteByte('}')
	return b.String()
}
