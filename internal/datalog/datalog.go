// Package datalog implements a bottom-up, semi-naive Datalog evaluator over
// the storage package. Rules are Horn clauses extended with builtin
// comparison filters and (for the stratified baseline) negation-as-failure
// test literals. The grounder uses a purely positive fragment of it to
// compute its possible-atom over-approximation; the classical baselines use
// the full engine stratum by stratum.
package datalog

import (
	"errors"
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/unify"
)

// Lit is a body or head literal over a predicate. Neg marks a
// negation-as-failure test: "fails to be in the store". Head literals must
// be positive.
type Lit struct {
	Key  ast.PredKey
	Args []ast.Term
	Neg  bool
}

// String renders the literal.
func (l Lit) String() string {
	a := ast.Atom{Pred: l.Key.Name, Args: l.Args}
	if l.Neg {
		return "not " + a.String()
	}
	return a.String()
}

// Atom returns the literal's atom.
func (l Lit) Atom() ast.Atom { return ast.Atom{Pred: l.Key.Name, Args: l.Args} }

// Rule is head <- body, builtins. The head is implicitly positive.
type Rule struct {
	Head     Lit
	Body     []Lit
	Builtins []ast.Builtin
}

// String renders the rule.
func (r *Rule) String() string {
	s := r.Head.String()
	if len(r.Body) > 0 || len(r.Builtins) > 0 {
		s += " :- "
		for i, l := range r.Body {
			if i > 0 {
				s += ", "
			}
			s += l.String()
		}
		for i, b := range r.Builtins {
			if i > 0 || len(r.Body) > 0 {
				s += ", "
			}
			s += b.String()
		}
	}
	return s + "."
}

// CheckSafety verifies that every variable of the head, of each NAF
// literal and of each builtin occurs in a positive body literal.
func (r *Rule) CheckSafety() error {
	bound := make(map[string]bool)
	for _, l := range r.Body {
		if l.Neg {
			continue
		}
		for _, v := range (ast.Atom{Pred: l.Key.Name, Args: l.Args}).Vars(nil) {
			bound[v.Name] = true
		}
	}
	requireBound := func(vs []ast.Var, what string) error {
		for _, v := range vs {
			if !bound[v.Name] {
				return fmt.Errorf("unsafe rule %s: variable %s in %s not bound by a positive body literal", r, v.Name, what)
			}
		}
		return nil
	}
	if err := requireBound(r.Head.Atom().Vars(nil), "head"); err != nil {
		return err
	}
	for _, l := range r.Body {
		if !l.Neg {
			continue
		}
		if err := requireBound(l.Atom().Vars(nil), "negative literal"); err != nil {
			return err
		}
	}
	for _, b := range r.Builtins {
		if err := requireBound(b.Vars(nil), "builtin"); err != nil {
			return err
		}
	}
	return nil
}

// ErrBudget is returned when evaluation derives more tuples than allowed.
var ErrBudget = errors.New("datalog: derivation budget exceeded")

// Options configures evaluation.
type Options struct {
	// MaxDerived caps the total number of tuples the evaluation may insert;
	// 0 means no cap.
	MaxDerived int
	// AtomFilter, when non-nil, rejects derived atoms (they are silently
	// not inserted). Callers use it to keep function-symbol programs
	// inside a depth-bounded Herbrand universe, without which a rule like
	// num(s(X)) :- num(X) would diverge.
	AtomFilter func(ast.Atom) bool
	// NoPlanner disables the selectivity-driven join planner and joins
	// body literals in source order (delta literal still first). Used by
	// differential tests to check the planner only changes cost, never the
	// least model.
	NoPlanner bool
}

// Eval runs the rules to fixpoint over st (which already holds the EDB),
// inserting derived tuples in place. It returns the number of new tuples.
//
// Negative (NAF) literals are tested against the store as it stands when
// the enclosing substitution is complete; this is only sound when the
// negated predicates are never derived by the rules being evaluated
// (stratification), which callers must guarantee.
func Eval(st *storage.Store, rules []*Rule, opts Options) (int, error) {
	for _, r := range rules {
		if err := r.CheckSafety(); err != nil {
			return 0, err
		}
	}
	derived := 0
	s := unify.NewSubst() // join scratch, empty between rules
	// watermarks[k] is the tuple count of relation k at the start of the
	// previous round; tuples at index >= watermark are that round's delta.
	marks := make(map[ast.PredKey]int)
	round := 0
	for {
		// Snapshot current sizes: tuples inserted this round extend deltas
		// for the next one.
		startSizes := make(map[ast.PredKey]int)
		for _, k := range st.Keys() {
			startSizes[k] = st.Peek(k).Len()
		}
		newThisRound := 0
		emit := func(a ast.Atom) error {
			if !a.Ground() {
				return fmt.Errorf("datalog: derived non-ground atom %s", a)
			}
			if opts.AtomFilter != nil && !opts.AtomFilter(a) {
				return nil
			}
			if st.InsertAtom(a) {
				newThisRound++
				derived++
				if opts.MaxDerived > 0 && derived > opts.MaxDerived {
					return ErrBudget
				}
			}
			return nil
		}
		for _, r := range rules {
			if round == 0 {
				if err := evalRule(st, r, s, -1, marks, opts, emit); err != nil {
					return derived, err
				}
				continue
			}
			// Semi-naive: require at least one positive literal to bind in
			// the previous round's delta.
			hasPos := false
			for i, l := range r.Body {
				if l.Neg {
					continue
				}
				hasPos = true
				if err := evalRule(st, r, s, i, marks, opts, emit); err != nil {
					return derived, err
				}
			}
			if !hasPos {
				continue // facts fire only in round 0
			}
		}
		// Advance watermarks to the sizes seen at the start of this round:
		// everything inserted during this round is the next round's delta.
		for k, n := range startSizes {
			marks[k] = n
		}
		round++
		if newThisRound == 0 {
			return derived, nil
		}
	}
}

// evalRule joins the rule body via the shared storage.Join planner and
// emits head instances. If deltaPos >= 0, the positive body literal at that
// index scans only the previous round's delta of its relation and is forced
// to the front of the join order. s is the caller's join scratch: empty on
// entry and on return.
func evalRule(st *storage.Store, r *Rule, s *unify.Subst, deltaPos int, marks map[ast.PredKey]int, opts Options, emit func(ast.Atom) error) error {
	if len(r.Body) == 0 && len(r.Builtins) == 0 {
		// A fact is its own only derivation: nothing to join or substitute.
		// (A non-ground one is rejected by emit, as it would be after the
		// empty join.)
		return emit(r.Head.Atom())
	}
	lits := make([]storage.JoinLit, 0, len(r.Body))
	first := -1
	for i, l := range r.Body {
		if l.Neg {
			continue
		}
		jl := storage.JoinLit{Rel: st.Peek(l.Key), Args: l.Args}
		if i == deltaPos {
			jl.Lo = marks[l.Key]
			first = len(lits)
		}
		lits = append(lits, jl)
	}
	return storage.Join(s, lits, first, !opts.NoPlanner, func() error {
		// All positive literals bound: test builtins and NAF literals.
		for _, b := range r.Builtins {
			gb := ast.Builtin{Op: b.Op, L: substExpr(s, b.L), R: substExpr(s, b.R)}
			holds, ok := ast.EvalBuiltin(gb)
			if !ok || !holds {
				return nil
			}
		}
		for _, l := range r.Body {
			if !l.Neg {
				continue
			}
			if st.ContainsAtom(s.ApplyAtom(l.Atom())) {
				return nil
			}
		}
		return emit(s.ApplyAtom(r.Head.Atom()))
	})
}

func substExpr(s *unify.Subst, e ast.Expr) ast.Expr {
	return ast.SubstituteExpr(e, func(v ast.Var) ast.Term {
		t := s.Apply(v)
		if tv, ok := t.(ast.Var); ok && tv.Name == v.Name {
			return nil
		}
		return t
	})
}
