// Package unify implements substitutions, most general unifiers and
// matching for the term language of internal/ast. The goal-directed query
// evaluator is its main client; the grounder joins over term ids
// (internal/storage) instead, and tests use Match as the join's oracle.
package unify

import (
	"sort"
	"strings"

	"repro/internal/ast"
)

// Subst is a substitution: a finite mapping from variable names to terms,
// with an undo trail for cheap backtracking. The zero value is not usable;
// call NewSubst.
type Subst struct {
	m     map[string]ast.Term
	trail []string
}

// NewSubst returns an empty substitution.
func NewSubst() *Subst { return &Subst{m: make(map[string]ast.Term)} }

// Clone returns an independent copy of the substitution (without trail
// history).
func (s *Subst) Clone() *Subst {
	c := &Subst{m: make(map[string]ast.Term, len(s.m))}
	for k, v := range s.m {
		c.m[k] = v
	}
	return c
}

// Mark returns an undo point for Undo. Bindings made after a Mark are
// removed by Undo(mark).
func (s *Subst) Mark() int { return len(s.trail) }

// Undo removes every binding made since the corresponding Mark.
func (s *Subst) Undo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		delete(s.m, s.trail[i])
	}
	s.trail = s.trail[:mark]
}

// Bind records v -> t. It does not check for conflicts or occurs; callers
// that need safety use Unify or Match. Rebinding an already-bound variable
// is not supported (the trail would undo it incorrectly); Unify and Match
// never do so.
func (s *Subst) Bind(v ast.Var, t ast.Term) {
	s.m[v.Name] = t
	s.trail = append(s.trail, v.Name)
}

// Lookup returns the binding of v, or nil if unbound.
func (s *Subst) Lookup(v ast.Var) ast.Term { return s.m[v.Name] }

// Len returns the number of bound variables.
func (s *Subst) Len() int { return len(s.m) }

// Walk resolves t one level: if t is a variable bound in s, follow the
// chain of bindings until an unbound variable or a non-variable term.
func (s *Subst) Walk(t ast.Term) ast.Term {
	for {
		v, ok := t.(ast.Var)
		if !ok {
			return t
		}
		b, ok := s.m[v.Name]
		if !ok {
			return t
		}
		t = b
	}
}

// Apply applies the substitution fully (deeply) to t.
func (s *Subst) Apply(t ast.Term) ast.Term {
	t = s.Walk(t)
	if c, ok := t.(ast.Compound); ok {
		args := make([]ast.Term, len(c.Args))
		for i, a := range c.Args {
			args[i] = s.Apply(a)
		}
		return ast.Compound{Functor: c.Functor, Args: args}
	}
	return t
}

// ApplyAtom applies the substitution to every argument of an atom.
func (s *Subst) ApplyAtom(a ast.Atom) ast.Atom {
	if len(a.Args) == 0 {
		return a
	}
	args := make([]ast.Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = s.Apply(t)
	}
	return ast.Atom{Pred: a.Pred, Args: args}
}

// ApplyLiteral applies the substitution to the literal's atom.
func (s *Subst) ApplyLiteral(l ast.Literal) ast.Literal {
	return ast.Literal{Neg: l.Neg, Atom: s.ApplyAtom(l.Atom)}
}

// Resolve returns v's binding applied deeply, or nil when v is unbound: the
// binding function ast's Substitute helpers take.
func (s *Subst) Resolve(v ast.Var) ast.Term {
	t := s.Apply(v)
	if tv, ok := t.(ast.Var); ok && tv.Name == v.Name {
		return nil // unbound: keep in place
	}
	return t
}

// ApplyRule applies the substitution to a whole rule.
func (s *Subst) ApplyRule(r *ast.Rule) *ast.Rule { return r.Substitute(s.Resolve) }

// String renders the substitution as {X->a, Y->f(b)} with sorted keys.
func (s *Subst) String() string {
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k)
		b.WriteString("->")
		b.WriteString(s.m[k].String())
	}
	b.WriteByte('}')
	return b.String()
}

// occurs reports whether variable v occurs in t under s.
func occurs(s *Subst, v ast.Var, t ast.Term) bool {
	t = s.Walk(t)
	switch t := t.(type) {
	case ast.Var:
		return t.Name == v.Name
	case ast.Compound:
		for _, a := range t.Args {
			if occurs(s, v, a) {
				return true
			}
		}
	}
	return false
}

// Unify extends s to a most general unifier of a and b. It returns false
// (leaving s possibly partially extended) when the terms do not unify;
// callers that need rollback should Clone first. The occurs check is on.
func Unify(s *Subst, a, b ast.Term) bool {
	a, b = s.Walk(a), s.Walk(b)
	if av, ok := a.(ast.Var); ok {
		if bv, ok := b.(ast.Var); ok && av.Name == bv.Name {
			return true
		}
		if occurs(s, av, b) {
			return false
		}
		s.Bind(av, b)
		return true
	}
	if bv, ok := b.(ast.Var); ok {
		if occurs(s, bv, a) {
			return false
		}
		s.Bind(bv, a)
		return true
	}
	switch a := a.(type) {
	case ast.Sym:
		o, ok := b.(ast.Sym)
		return ok && a == o
	case ast.Int:
		o, ok := b.(ast.Int)
		return ok && a == o
	case ast.Compound:
		o, ok := b.(ast.Compound)
		if !ok || a.Functor != o.Functor || len(a.Args) != len(o.Args) {
			return false
		}
		for i := range a.Args {
			if !Unify(s, a.Args[i], o.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// UnifyAtoms extends s to unify two atoms.
func UnifyAtoms(s *Subst, a, b ast.Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !Unify(s, a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// Match extends s so that pattern instantiated by s equals the ground term
// g. Variables may only appear in pattern (one-way unification). Returns
// false when matching fails; s may be partially extended.
func Match(s *Subst, pattern, g ast.Term) bool {
	pattern = s.Walk(pattern)
	if v, ok := pattern.(ast.Var); ok {
		s.Bind(v, g)
		return true
	}
	switch p := pattern.(type) {
	case ast.Sym:
		o, ok := g.(ast.Sym)
		return ok && p == o
	case ast.Int:
		o, ok := g.(ast.Int)
		return ok && p == o
	case ast.Compound:
		o, ok := g.(ast.Compound)
		if !ok || p.Functor != o.Functor || len(p.Args) != len(o.Args) {
			return false
		}
		for i := range p.Args {
			if !Match(s, p.Args[i], o.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// MatchAtoms extends s to match a pattern atom against a ground atom.
func MatchAtoms(s *Subst, pattern, g ast.Atom) bool {
	if pattern.Pred != g.Pred || len(pattern.Args) != len(g.Args) {
		return false
	}
	for i := range pattern.Args {
		if !Match(s, pattern.Args[i], g.Args[i]) {
			return false
		}
	}
	return true
}

// RenameRule returns a copy of r with every variable renamed using the
// given suffix (X becomes X#suffix). Used to keep rule instances apart.
func RenameRule(r *ast.Rule, suffix string) *ast.Rule {
	return r.Substitute(func(v ast.Var) ast.Term {
		return ast.Var{Name: v.Name + "#" + suffix}
	})
}
