package ast

import (
	"fmt"
	"strings"
)

// CmpOp is a comparison operator usable in rule bodies.
type CmpOp int

// Comparison operators. EQ and NE apply to arbitrary ground terms; the
// ordering operators require both sides to evaluate to integers.
const (
	EQ CmpOp = iota // =
	NE              // !=
	LT              // <
	LE              // <=
	GT              // >
	GE              // >=
)

// String returns the surface-syntax spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return fmt.Sprintf("CmpOp(%d)", int(op))
}

// Negate returns the complementary comparison (e.g. < becomes >=).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return op
}

// ArithOp is an arithmetic operator inside comparison arguments.
type ArithOp byte

// Arithmetic operators over integers. Division truncates toward zero;
// division and modulo by zero make the enclosing builtin unsatisfiable.
const (
	Add ArithOp = '+'
	Sub ArithOp = '-'
	Mul ArithOp = '*'
	Div ArithOp = '/'
	Mod ArithOp = '%'
)

// Expr is an arithmetic expression: a TermExpr leaf or a BinExpr node.
type Expr interface {
	fmt.Stringer

	// ExprVars appends the variables of the expression to vs.
	ExprVars(vs []Var) []Var
	isExpr()
}

// TermExpr wraps a term (a variable, integer or symbol) as an expression
// leaf. Symbols are only meaningful under EQ and NE.
type TermExpr struct {
	Term Term
}

// BinExpr is a binary arithmetic node.
type BinExpr struct {
	Op   ArithOp
	L, R Expr
}

func (TermExpr) isExpr() {}
func (BinExpr) isExpr()  {}

// String renders the leaf term.
func (e TermExpr) String() string { return e.Term.String() }

// String renders the expression fully parenthesised. Mod prints as the
// keyword "mod" ('%' opens a comment in the surface syntax).
func (e BinExpr) String() string {
	op := string(e.Op)
	if e.Op == Mod {
		op = "mod"
	}
	return "(" + e.L.String() + " " + op + " " + e.R.String() + ")"
}

// ExprVars appends the leaf's variables to vs.
func (e TermExpr) ExprVars(vs []Var) []Var { return TermVars(e.Term, vs) }

// ExprVars appends both operand's variables to vs.
func (e BinExpr) ExprVars(vs []Var) []Var { return e.R.ExprVars(e.L.ExprVars(vs)) }

// Builtin is a comparison L op R between arithmetic expressions. Builtins
// appear only in rule bodies and are evaluated during grounding; every
// variable in a builtin must be bound by a positive body literal (safety).
type Builtin struct {
	Op   CmpOp
	L, R Expr
}

// String renders the builtin in the surface syntax.
func (b Builtin) String() string {
	return b.L.String() + " " + b.Op.String() + " " + b.R.String()
}

// Vars appends the variables of both sides to vs.
func (b Builtin) Vars(vs []Var) []Var { return b.R.ExprVars(b.L.ExprVars(vs)) }

// EvalExpr evaluates a ground arithmetic expression. It returns the
// resulting term: for TermExpr leaves the term itself, for BinExpr an
// integer. ok is false if the expression contains a variable, applies
// arithmetic to a non-integer, or divides by zero.
func EvalExpr(e Expr) (Term, bool) {
	switch e := e.(type) {
	case TermExpr:
		if !e.Term.Ground() {
			return nil, false
		}
		return e.Term, true
	case BinExpr:
		lt, ok := EvalExpr(e.L)
		if !ok {
			return nil, false
		}
		rt, ok := EvalExpr(e.R)
		if !ok {
			return nil, false
		}
		li, ok := lt.(Int)
		if !ok {
			return nil, false
		}
		ri, ok := rt.(Int)
		if !ok {
			return nil, false
		}
		switch e.Op {
		case Add:
			return li + ri, true
		case Sub:
			return li - ri, true
		case Mul:
			return li * ri, true
		case Div:
			if ri == 0 {
				return nil, false
			}
			return li / ri, true
		case Mod:
			if ri == 0 {
				return nil, false
			}
			return li % ri, true
		}
	}
	return nil, false
}

// EvalBuiltin evaluates a ground builtin. ok is false when the builtin is
// not ground or ill-typed (ordering on non-integers, arithmetic failure);
// callers treat !ok as unsatisfied.
func EvalBuiltin(b Builtin) (holds, ok bool) {
	lt, lok := EvalExpr(b.L)
	rt, rok := EvalExpr(b.R)
	if !lok || !rok {
		return false, false
	}
	switch b.Op {
	case EQ:
		return lt.Equal(rt), true
	case NE:
		return !lt.Equal(rt), true
	}
	li, lok := lt.(Int)
	ri, rok := rt.(Int)
	if !lok || !rok {
		return false, false
	}
	switch b.Op {
	case LT:
		return li < ri, true
	case LE:
		return li <= ri, true
	case GT:
		return li > ri, true
	case GE:
		return li >= ri, true
	}
	return false, false
}

// exprEqual reports structural equality of expressions.
func exprEqual(a, b Expr) bool {
	switch a := a.(type) {
	case TermExpr:
		o, ok := b.(TermExpr)
		return ok && a.Term.Equal(o.Term)
	case BinExpr:
		o, ok := b.(BinExpr)
		return ok && a.Op == o.Op && exprEqual(a.L, o.L) && exprEqual(a.R, o.R)
	}
	return false
}

// Equal reports structural equality of builtins.
func (b Builtin) Equal(o Builtin) bool {
	return b.Op == o.Op && exprEqual(b.L, o.L) && exprEqual(b.R, o.R)
}

// Substitute applies a variable binding function to both sides of the
// builtin. Unbound variables (bind returns nil) are left in place.
func (b Builtin) Substitute(bind func(Var) Term) Builtin {
	return Builtin{Op: b.Op, L: SubstituteExpr(b.L, bind), R: SubstituteExpr(b.R, bind)}
}

// HoldsUnder reports whether the builtin holds with its variables resolved
// by bind (nil: unbound). A builtin that cannot be evaluated — a variable
// left unbound, an ill-typed operand — does not hold. Every rule-instance
// path (grounder, Datalog, classical, queries) tests builtins through it.
func (b Builtin) HoldsUnder(bind func(Var) Term) bool {
	holds, ok := EvalBuiltin(b.Substitute(bind))
	return ok && holds
}

// SubstituteExpr applies a variable binding function to the expression,
// returning a new expression. Unbound variables are left in place (bind
// returns nil for them).
func SubstituteExpr(e Expr, bind func(Var) Term) Expr {
	switch e := e.(type) {
	case TermExpr:
		return TermExpr{Term: SubstituteTerm(e.Term, bind)}
	case BinExpr:
		return BinExpr{Op: e.Op, L: SubstituteExpr(e.L, bind), R: SubstituteExpr(e.R, bind)}
	}
	return e
}

// SubstituteTerm applies a variable binding function to the term, returning
// a new term. Unbound variables (bind returns nil) are left in place.
func SubstituteTerm(t Term, bind func(Var) Term) Term {
	switch t := t.(type) {
	case Var:
		if r := bind(t); r != nil {
			return r
		}
		return t
	case Compound:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = SubstituteTerm(a, bind)
		}
		return Compound{Functor: t.Functor, Args: args}
	}
	return t
}

// SubstituteAtom applies a variable binding function to every argument.
func SubstituteAtom(a Atom, bind func(Var) Term) Atom {
	if len(a.Args) == 0 {
		return a
	}
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = SubstituteTerm(t, bind)
	}
	return Atom{Pred: a.Pred, Args: args}
}

// SubstituteLiteral applies a variable binding function to the literal.
func SubstituteLiteral(l Literal, bind func(Var) Term) Literal {
	return Literal{Neg: l.Neg, Atom: SubstituteAtom(l.Atom, bind)}
}

// writeList is a small helper for comma-separated rendering.
func writeList[T fmt.Stringer](b *strings.Builder, items []T, sep string) {
	for i, it := range items {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(it.String())
	}
}
