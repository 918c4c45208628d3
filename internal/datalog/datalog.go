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
	"repro/internal/term"
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
	// AtomFilter, when non-nil, rejects derived atoms by their argument ids
	// (they are silently not inserted). Callers use it to keep
	// function-symbol programs inside a depth-bounded Herbrand universe,
	// without which a rule like num(s(X)) :- num(X) would diverge.
	AtomFilter func(args []term.ID) bool
	// NoPlanner disables the selectivity-driven join planner and joins
	// body literals in source order (delta literal still first). Used by
	// differential tests to check the planner only changes cost, never the
	// least model.
	NoPlanner bool
}

// compiled is a rule compiled once per evaluation for the join kernel: its
// variables numbered into frame slots, every literal's arguments into
// patterns.
type compiled struct {
	r    *Rule
	vars []ast.Var
	head []storage.Pat
	body [][]storage.Pat
}

// compile compiles r, carving its patterns from *slab.
func compile(tab *term.Table, r *Rule, slab *[]storage.Pat) compiled {
	c := compiled{r: r, body: make([][]storage.Pat, len(r.Body))}
	carve := func(args []ast.Term) []storage.Pat {
		start := len(*slab)
		*slab = storage.AppendPats(*slab, tab, args, &c.vars)
		return (*slab)[start:len(*slab):len(*slab)]
	}
	for i, l := range r.Body {
		c.body[i] = carve(l.Args)
	}
	c.head = carve(r.Head.Args)
	return c
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
	e := evaluator{st: st, tab: st.Table(), opts: opts, f: &storage.Frame{}}
	// Facts insert their head as written; every other rule is compiled,
	// its patterns carved from one slab.
	nargs, nrules := 0, 0
	for _, r := range rules {
		if r.isFact() {
			continue
		}
		nrules++
		nargs += len(r.Head.Args)
		for _, l := range r.Body {
			nargs += len(l.Args)
		}
	}
	slab := make([]storage.Pat, 0, nargs)
	comps := make([]compiled, 0, nrules)
	for _, r := range rules {
		if !r.isFact() {
			comps = append(comps, compile(e.tab, r, &slab))
			e.f.Reserve(len(comps[len(comps)-1].vars))
		}
	}
	// marks[k] is the tuple count of relation k at the start of the
	// previous round; tuples at index >= mark are that round's delta.
	e.marks = make(map[ast.PredKey]int)
	round := 0
	for {
		// Snapshot current sizes: tuples inserted this round extend deltas
		// for the next one.
		startSizes := make(map[ast.PredKey]int)
		for _, k := range st.Keys() {
			startSizes[k] = st.Peek(k).Len()
		}
		e.newThisRound = 0
		next := 0 // comps index of the next non-fact rule
		for _, r := range rules {
			if r.isFact() {
				// A fact is its own only derivation, in round 0.
				if round == 0 {
					if err := e.emitFact(r); err != nil {
						return e.derived, err
					}
				}
				continue
			}
			c := &comps[next]
			next++
			if round == 0 {
				if err := e.evalRule(c, -1); err != nil {
					return e.derived, err
				}
				continue
			}
			// Semi-naive: require at least one positive literal to bind in
			// the previous round's delta.
			for i, l := range r.Body {
				if l.Neg {
					continue
				}
				if err := e.evalRule(c, i); err != nil {
					return e.derived, err
				}
			}
		}
		// Advance watermarks to the sizes seen at the start of this round:
		// everything inserted during this round is the next round's delta.
		for k, n := range startSizes {
			e.marks[k] = n
		}
		round++
		if e.newThisRound == 0 {
			return e.derived, nil
		}
	}
}

// evaluator is one Eval's state: the join frame, the id scratch heads and
// NAF probes are built in, and the derivation counts.
type evaluator struct {
	st                    *storage.Store
	tab                   *term.Table
	opts                  Options
	f                     *storage.Frame
	ids                   []term.ID
	marks                 map[ast.PredKey]int
	derived, newThisRound int
	// rel is the relation the last insert went to, relKey its key:
	// derivations come in runs of one head.
	rel    *storage.Relation
	relKey ast.PredKey
}

func (r *Rule) isFact() bool { return len(r.Body) == 0 && len(r.Builtins) == 0 }

// emit inserts the head instance the frame binds.
func (e *evaluator) emit(c *compiled) error {
	args, ok := e.f.Build(e.tab, c.head, e.ids[:0])
	e.ids = args
	if !ok {
		return fmt.Errorf("datalog: derived non-ground atom of %s", c.r)
	}
	return e.insert(c.r.Head.Key, args)
}

// emitFact inserts a fact's head, which must be ground.
func (e *evaluator) emitFact(r *Rule) error {
	args := e.ids[:0]
	for _, t := range r.Head.Args {
		if !t.Ground() {
			return fmt.Errorf("datalog: derived non-ground atom %s", r.Head)
		}
		args = append(args, e.tab.Intern(t))
	}
	e.ids = args
	return e.insert(r.Head.Key, args)
}

// insert adds a derived tuple the atom filter admits.
func (e *evaluator) insert(k ast.PredKey, args []term.ID) error {
	if e.opts.AtomFilter != nil && !e.opts.AtomFilter(args) {
		return nil
	}
	if e.rel == nil || k != e.relKey {
		e.rel, e.relKey = e.st.Rel(k), k
	}
	if e.rel.InsertIDs(args) {
		e.newThisRound++
		e.derived++
		if e.opts.MaxDerived > 0 && e.derived > e.opts.MaxDerived {
			return ErrBudget
		}
	}
	return nil
}

// evalRule joins the rule body via the shared storage.Join planner and
// emits head instances. If deltaPos >= 0, the positive body literal at that
// index scans only the previous round's delta of its relation and is forced
// to the front of the join order.
func (e *evaluator) evalRule(c *compiled, deltaPos int) error {
	r := c.r
	lits := make([]storage.JoinLit, 0, len(r.Body))
	first := -1
	for i, l := range r.Body {
		if l.Neg {
			continue
		}
		jl := storage.JoinLit{Rel: e.st.Peek(l.Key), Args: c.body[i]}
		if i == deltaPos {
			jl.Lo = e.marks[l.Key]
			first = len(lits)
		}
		lits = append(lits, jl)
	}
	res := storage.Resolver{F: e.f, Tab: e.tab, Vars: c.vars}
	return storage.Join(e.f, lits, first, !e.opts.NoPlanner, func() error {
		// All positive literals bound: test builtins and NAF literals.
		for _, b := range r.Builtins {
			if !b.HoldsUnder(res.Term) {
				return nil
			}
		}
		for i, l := range r.Body {
			if !l.Neg {
				continue
			}
			rel := e.st.Peek(l.Key)
			if rel == nil {
				continue
			}
			ids, ok := e.f.Lookup(e.tab, c.body[i], e.ids[:0])
			e.ids = ids
			if ok && rel.ContainsIDs(ids) {
				return nil
			}
		}
		return e.emit(c)
	})
}
