package ast

import "strings"

// Query is a conjunctive goal ?- l1, ..., ln, builtins. Queries are not
// part of an ordered program's semantics; they are evaluated against a
// computed model by the engine.
type Query struct {
	Body     []Literal
	Builtins []Builtin
}

// Vars returns the variables of the query in order of first occurrence.
func (q Query) Vars() []Var {
	var vs []Var
	for _, l := range q.Body {
		vs = l.Vars(vs)
	}
	for _, b := range q.Builtins {
		vs = b.Vars(vs)
	}
	return vs
}

// String renders the query in the surface syntax.
func (q Query) String() string {
	n := len("?- .") // builtins, rare in queries, grow the builder
	for i, l := range q.Body {
		if i > 0 {
			n += len(", ")
		}
		n += l.len()
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("?- ")
	for i, l := range q.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		l.write(&b)
	}
	if len(q.Body) > 0 && len(q.Builtins) > 0 {
		b.WriteString(", ")
	}
	writeList(&b, q.Builtins, ", ")
	b.WriteByte('.')
	return b.String()
}
