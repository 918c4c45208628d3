// Test-only accessors: methods the tests inspect state with that no
// production code calls.

package unify

import "repro/internal/ast"

// RenameRule returns a copy of r with every variable renamed using the
// given suffix (X becomes X#suffix). Used to keep rule instances apart.
func RenameRule(r *ast.Rule, suffix string) *ast.Rule {
	return r.Substitute(func(v ast.Var) ast.Term {
		return ast.Var{Name: v.Name + "#" + suffix}
	})
}

// ApplyRule applies the substitution to a whole rule.
func (s *Subst) ApplyRule(r *ast.Rule) *ast.Rule { return r.Substitute(s.Resolve) }

// Clone returns an independent copy of the substitution (without trail
// history).
func (s *Subst) Clone() *Subst {
	c := &Subst{m: make(map[string]ast.Term, len(s.m))}
	for k, v := range s.m {
		c.m[k] = v
	}
	return c
}

// Len returns the number of bound variables.
func (s *Subst) Len() int { return len(s.m) }

// Lookup returns the binding of v, or nil if unbound.
func (s *Subst) Lookup(v ast.Var) ast.Term { return s.m[v.Name] }
