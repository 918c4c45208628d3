package ast

import (
	"strings"
)

// Rule is a (possibly negative) rule Head <- Body, Builtins. The paper's
// terminology:
//
//   - a rule is *negative* in general (the head may be a negative literal);
//   - it is *seminegative* when the head is positive;
//   - it is *positive* (a Horn clause) when head and all body literals are
//     positive.
//
// Builtins are comparison conditions evaluated at grounding time; they are
// kept apart from Body because they never participate in the model-theoretic
// rule statuses (blocked/overruled/defeated) — an instance whose builtins
// fail simply has no ground instance.
type Rule struct {
	Head     Literal
	Body     []Literal
	Builtins []Builtin
}

// Fact returns a rule with the given head and empty body.
func Fact(h Literal) *Rule { return &Rule{Head: h} }

// IsFact reports whether the rule has an empty body (builtins included).
func (r *Rule) IsFact() bool { return len(r.Body) == 0 && len(r.Builtins) == 0 }

// IsSeminegative reports whether the head is positive.
func (r *Rule) IsSeminegative() bool { return !r.Head.Neg }

// IsPositive reports whether head and all body literals are positive.
func (r *Rule) IsPositive() bool {
	if r.Head.Neg {
		return false
	}
	for _, l := range r.Body {
		if l.Neg {
			return false
		}
	}
	return true
}

// Ground reports whether the rule contains no variables.
func (r *Rule) Ground() bool {
	if !r.Head.Ground() {
		return false
	}
	for _, l := range r.Body {
		if !l.Ground() {
			return false
		}
	}
	for _, b := range r.Builtins {
		if len(b.Vars(nil)) > 0 {
			return false
		}
	}
	return true
}

// Vars returns the variables of the rule in order of first occurrence
// (head first, then body, then builtins).
func (r *Rule) Vars() []Var {
	vs := r.Head.Vars(nil)
	for _, l := range r.Body {
		vs = l.Vars(vs)
	}
	for _, b := range r.Builtins {
		vs = b.Vars(vs)
	}
	return vs
}

// String renders the rule in the surface syntax, terminated by a period.
func (r *Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Head.String())
	if len(r.Body) > 0 || len(r.Builtins) > 0 {
		b.WriteString(" :- ")
		writeList(&b, r.Body, ", ")
		if len(r.Body) > 0 && len(r.Builtins) > 0 {
			b.WriteString(", ")
		}
		writeList(&b, r.Builtins, ", ")
	}
	b.WriteByte('.')
	return b.String()
}

// Equal reports structural equality of rules, including body order.
func (r *Rule) Equal(o *Rule) bool {
	if !r.Head.Equal(o.Head) || len(r.Body) != len(o.Body) || len(r.Builtins) != len(o.Builtins) {
		return false
	}
	for i := range r.Body {
		if !r.Body[i].Equal(o.Body[i]) {
			return false
		}
	}
	for i := range r.Builtins {
		if !r.Builtins[i].Equal(o.Builtins[i]) {
			return false
		}
	}
	return true
}

// Substitute applies a binding function to every part of the rule,
// returning a new rule. Unbound variables are left in place.
func (r *Rule) Substitute(bind func(Var) Term) *Rule {
	nr := &Rule{Head: SubstituteLiteral(r.Head, bind)}
	if len(r.Body) > 0 {
		nr.Body = make([]Literal, len(r.Body))
		for i, l := range r.Body {
			nr.Body[i] = SubstituteLiteral(l, bind)
		}
	}
	if len(r.Builtins) > 0 {
		nr.Builtins = make([]Builtin, len(r.Builtins))
		for i, b := range r.Builtins {
			nr.Builtins[i] = b.Substitute(bind)
		}
	}
	return nr
}

// Clone returns a deep-enough copy of the rule (shared immutable terms).
func (r *Rule) Clone() *Rule {
	nr := &Rule{Head: r.Head}
	nr.Body = append([]Literal(nil), r.Body...)
	nr.Builtins = append([]Builtin(nil), r.Builtins...)
	return nr
}
