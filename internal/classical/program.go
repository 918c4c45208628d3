// Package classical implements the classical negation-as-failure semantics
// the paper compares against: stratified Datalog [ABW], the well-founded
// semantics [VRS] via the alternating fixpoint, total stable models [GL1],
// and the 3-valued models and founded/stable models of [P3] and [SZ] that
// §3 of the paper proves are captured by the OV/EV translations.
//
// Programs here are seminegative (positive heads); body negation is read
// as negation as failure. The package has its own ground representation:
// a rule is head <- positive atoms, negated atoms.
package classical

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/datalog"
	"repro/internal/interp"
	"repro/internal/storage"
	"repro/internal/term"
)

// Rule is a ground seminegative rule over interned atoms: Head <- Pos,
// not Neg.
type Rule struct {
	Head interp.AtomID
	Pos  []interp.AtomID
	Neg  []interp.AtomID
	Src  *ast.Rule
}

// Program is a ground classical program.
type Program struct {
	Tab   *interp.Table
	Rules []Rule
	// headRules[a] lists the indexes of rules with head a.
	headRules map[interp.AtomID][]int32
}

// HeadRules returns the indexes of the rules with the given head atom.
func (p *Program) HeadRules(a interp.AtomID) []int32 { return p.headRules[a] }

// Options configures classical grounding.
type Options struct {
	// MaxDerived caps the possible-atom fixpoint and instance count
	// (0 = 1<<22).
	MaxDerived int
	// Full instantiates every rule over the whole constant universe and
	// interns the complete Herbrand base, instead of relevance-based
	// grounding. Required when enumerating arbitrary 3-valued models
	// (relevance grounding drops rules with underivable positive bodies,
	// which is sound for negation-as-failure fixpoints but changes the
	// 3-valued model family).
	Full bool
}

// domKeyC binds head variables that no positive body literal binds.
var domKeyC = ast.PredKey{Name: "$dom", Arity: 1}

// GroundRules instantiates a seminegative program with relevance-based
// grounding: the positive-projection fixpoint over-approximates the
// derivable atoms, rules are instantiated by joins over it (negation as
// failure never restricts instantiation), and negated atoms are interned
// as encountered. Every rule variable must occur in a positive body
// literal or be a head variable (head variables without positive binding
// range over the universe of program constants).
func GroundRules(rules []*ast.Rule, opts Options) (*Program, error) {
	if opts.MaxDerived == 0 {
		opts.MaxDerived = 1 << 22
	}
	for _, r := range rules {
		if r.Head.Neg {
			return nil, fmt.Errorf("classical: negative head in %s", r)
		}
	}
	// Universe of constants for head-only variables.
	sp := ast.SingleComponent("c", rules)
	uni := sp.Constants()
	if len(uni) == 0 {
		uni = []ast.Term{ast.Sym("u0")}
	}

	st := storage.NewStore()
	dom := st.Rel(domKeyC)
	for _, t := range uni {
		dom.Insert([]ast.Term{t})
	}
	type src struct {
		r    *ast.Rule
		body []datalog.Lit // positive body plus $dom for free head vars
	}
	var srcs []src
	var dl []*datalog.Rule
	for _, r := range rules {
		bound := make(map[string]bool)
		var body []datalog.Lit
		for _, l := range r.Body {
			if l.Neg {
				continue
			}
			body = append(body, datalog.Lit{Key: l.Atom.Key(), Args: l.Atom.Args})
			for _, v := range l.Vars(nil) {
				bound[v.Name] = true
			}
		}
		for _, v := range r.Head.Vars(nil) {
			if !bound[v.Name] {
				bound[v.Name] = true
				body = append(body, datalog.Lit{Key: domKeyC, Args: []ast.Term{v}})
			}
		}
		// Negated and builtin variables must now be bound.
		for _, l := range r.Body {
			if !l.Neg {
				continue
			}
			for _, v := range l.Vars(nil) {
				if !bound[v.Name] {
					return nil, fmt.Errorf("classical: unsafe rule %s: variable %s only in negated literal", r, v.Name)
				}
			}
		}
		for _, b := range r.Builtins {
			for _, v := range b.Vars(nil) {
				if !bound[v.Name] {
					return nil, fmt.Errorf("classical: unsafe rule %s: variable %s only in builtin", r, v.Name)
				}
			}
		}
		dl = append(dl, &datalog.Rule{
			Head:     datalog.Lit{Key: r.Head.Atom.Key(), Args: r.Head.Atom.Args},
			Body:     body,
			Builtins: r.Builtins,
		})
		srcs = append(srcs, src{r: r, body: body})
	}
	if !opts.Full {
		// Bound derived terms by the deepest term written in the program:
		// the classical baselines are Datalog engines, and without the
		// guard a functor head like num(s(X)) :- num(X) would diverge.
		maxDepth := 0
		for _, r := range rules {
			for _, t := range r.Head.Atom.Args {
				if d := ast.TermDepth(t); d > maxDepth {
					maxDepth = d
				}
			}
			for _, l := range r.Body {
				for _, t := range l.Atom.Args {
					if d := ast.TermDepth(t); d > maxDepth {
						maxDepth = d
					}
				}
			}
		}
		filter := func(args []term.ID) bool {
			for _, id := range args {
				if ast.TermDepth(st.Table().Term(id)) > maxDepth {
					return false
				}
			}
			return true
		}
		if _, err := datalog.Eval(st, dl, datalog.Options{MaxDerived: opts.MaxDerived, AtomFilter: filter}); err != nil {
			return nil, err
		}
	}

	// The atom table shares the store's term table, so instantiation joins
	// and atom interning agree on term ids.
	tt := st.Table()
	p := &Program{Tab: interp.NewTableWith(tt), headRules: make(map[interp.AtomID][]int32)}
	seen := make(map[string]bool)
	f := &storage.Frame{}
	var (
		keyBuf []byte
		argBuf []term.ID
		atoms  []interp.IDAtom
		ids    []interp.AtomID
	)
	appendLit := func(b []byte, l interp.Lit) []byte {
		return append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	emit := func(c *crule) error {
		res := storage.Resolver{F: f, Tab: tt, Vars: c.vars}
		for _, b := range c.r.Builtins {
			if !b.HoldsUnder(res.Term) {
				return nil
			}
		}
		// Head then body atoms, interned under one lock; argument ids go to
		// argBuf first so the atoms' slices do not move under them.
		argBuf = argBuf[:0]
		for i := range c.atoms {
			var ok bool
			if argBuf, ok = f.Build(tt, c.atoms[i].args, argBuf); !ok {
				return fmt.Errorf("classical: non-ground instance of %s", c.r)
			}
		}
		atoms = atoms[:0]
		off := 0
		for i := range c.atoms {
			n := len(c.atoms[i].args)
			atoms = append(atoms, interp.IDAtom{Pred: c.atoms[i].pred, Sym: c.atoms[i].sym, Args: argBuf[off : off+n]})
			off += n
		}
		ids = p.Tab.InternAtoms(ids[:0], atoms)
		// Dedup on the interned encoding: head id then signed body lit ids,
		// packed little-endian.
		keyBuf = appendLit(keyBuf[:0], interp.MkLit(ids[0], false))
		gr := Rule{Head: ids[0], Src: c.r}
		for i, l := range c.r.Body {
			id := ids[i+1]
			if l.Neg {
				gr.Neg = append(gr.Neg, id)
			} else {
				gr.Pos = append(gr.Pos, id)
			}
			keyBuf = appendLit(keyBuf, interp.MkLit(id, l.Neg))
		}
		key := string(keyBuf)
		if seen[key] {
			return nil
		}
		seen[key] = true
		p.headRules[gr.Head] = append(p.headRules[gr.Head], int32(len(p.Rules)))
		p.Rules = append(p.Rules, gr)
		if len(p.Rules) > opts.MaxDerived {
			return datalog.ErrBudget
		}
		return nil
	}
	crs := make([]crule, len(srcs))
	for i, sr := range srcs {
		crs[i] = compileRule(st, sr.r, sr.body)
		f.Reserve(len(crs[i].vars))
	}
	if opts.Full {
		// Exhaustive instantiation over the constant universe, then intern
		// the complete Herbrand base of every referenced predicate.
		uniIDs := make([]term.ID, len(uni))
		for i, t := range uni {
			uniIDs[i] = tt.Intern(t)
		}
		for i := range crs {
			c := &crs[i]
			if err := enumerateAll(f, c.nvars, uniIDs, func() error { return emit(c) }); err != nil {
				return nil, err
			}
		}
		for _, k := range ast.SingleComponent("c", rules).Predicates() {
			if err := internAll(p.Tab, k, uni, opts.MaxDerived); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	for i := range crs {
		c := &crs[i]
		if err := storage.Join(f, c.join, -1, true, func() error { return emit(c) }); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// catom is a compiled rule atom: predicate name and symbol id, argument
// patterns.
type catom struct {
	pred string
	sym  term.ID
	args []storage.Pat
}

// crule is a rule compiled for the join kernel: slots 0..nvars-1 are its
// own variables in r.Vars() order (vars may add the $dom-bound ones, all
// among them); atoms are head then body; join is the positive body plus
// the $dom literals over st's relations.
type crule struct {
	r     *ast.Rule
	vars  []ast.Var
	nvars int
	atoms []catom
	join  []storage.JoinLit
}

func compileRule(st *storage.Store, r *ast.Rule, body []datalog.Lit) crule {
	tt := st.Table()
	c := crule{r: r, vars: r.Vars()}
	c.nvars = len(c.vars)
	add := func(a ast.Atom) {
		c.atoms = append(c.atoms, catom{pred: a.Pred, sym: tt.InternSym(a.Pred), args: storage.CompileArgs(tt, a.Args, &c.vars)})
	}
	add(r.Head.Atom)
	for _, l := range r.Body {
		add(l.Atom)
	}
	for _, l := range body {
		c.join = append(c.join, storage.JoinLit{Rel: st.Peek(l.Key), Args: storage.CompileArgs(tt, l.Args, &c.vars)})
	}
	return c
}

// enumerateAll binds slots 0..n-1 over the universe, calling yield per
// binding.
func enumerateAll(f *storage.Frame, n int, uni []term.ID, yield func() error) error {
	var rec func(i int32) error
	rec = func(i int32) error {
		if int(i) == n {
			return yield()
		}
		for _, id := range uni {
			mark := f.Mark()
			f.Bind(i, id)
			err := rec(i + 1)
			f.Undo(mark)
			if err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// internAll interns every atom of predicate k over the universe.
func internAll(tab *interp.Table, k ast.PredKey, uni []ast.Term, budget int) error {
	args := make([]ast.Term, k.Arity)
	var rec func(i int) error
	rec = func(i int) error {
		if i == k.Arity {
			tab.Intern(ast.Atom{Pred: k.Name, Args: append([]ast.Term(nil), args...)})
			if budget > 0 && tab.Len() > budget {
				return datalog.ErrBudget
			}
			return nil
		}
		for _, t := range uni {
			args[i] = t
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// RuleString renders a ground classical rule.
func (p *Program) RuleString(r *Rule) string {
	s := p.Tab.Atom(r.Head).String()
	if len(r.Pos)+len(r.Neg) > 0 {
		s += " :- "
		first := true
		for _, a := range r.Pos {
			if !first {
				s += ", "
			}
			first = false
			s += p.Tab.Atom(a).String()
		}
		for _, a := range r.Neg {
			if !first {
				s += ", "
			}
			first = false
			s += "not " + p.Tab.Atom(a).String()
		}
	}
	return s + "."
}
