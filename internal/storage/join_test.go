package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/term"
	"repro/internal/unify"
)

// joinCase is one drawn join: literals over source patterns, the variables
// bound before the join, and the join's delta literal and planner switch.
type joinCase struct {
	rels  []*Relation
	lits  [][]ast.Term // per literal: argument patterns
	relOf []int        // per literal: index into rels, -1 for a missing relation
	lo    []int
	pre   map[string]ast.Term
	first int
	plan  bool
}

func (c joinCase) String() string {
	var b strings.Builder
	for i, args := range c.lits {
		fmt.Fprintf(&b, "r%d%v[lo %d] ", c.relOf[i], args, c.lo[i])
	}
	fmt.Fprintf(&b, "pre %v first %d plan %v", c.pre, c.first, c.plan)
	return b.String()
}

// groundPool is the terms tuples hold: constants and compounds over them.
func groundPool() []ast.Term {
	a, b, c := ast.Sym("a"), ast.Sym("b"), ast.Int(3)
	return []ast.Term{a, b, c,
		ast.Compound{Functor: "f", Args: []ast.Term{a}},
		ast.Compound{Functor: "f", Args: []ast.Term{b}},
		ast.Compound{Functor: "g", Args: []ast.Term{a, ast.Compound{Functor: "f", Args: []ast.Term{a}}}},
		ast.Compound{Functor: "g", Args: []ast.Term{b, ast.Compound{Functor: "f", Args: []ast.Term{a}}}},
		ast.Compound{Functor: "g", Args: []ast.Term{a, b}},
	}
}

// drawPattern draws one argument pattern: mostly variables from a small
// set (so repeats are common), constants (including one no tuple holds),
// and compounds with variables inside — f(X), g(X, f(Y)), g(X, X).
func drawPattern(rng *rand.Rand, pool []ast.Term) ast.Term {
	v := func() ast.Term { return ast.Var{Name: fmt.Sprintf("X%d", rng.Intn(3))} }
	switch rng.Intn(8) {
	case 0, 1, 2, 3:
		return v()
	case 4:
		return pool[rng.Intn(len(pool))]
	case 5:
		return ast.Sym("zz") // in no tuple
	case 6:
		return ast.Compound{Functor: "f", Args: []ast.Term{v()}}
	default:
		x := v()
		var y ast.Term = ast.Compound{Functor: "f", Args: []ast.Term{v()}}
		if rng.Intn(2) == 0 {
			y = x
		}
		return ast.Compound{Functor: "g", Args: []ast.Term{x, y}}
	}
}

func drawJoin(rng *rand.Rand, tab *term.Table, pool []ast.Term) joinCase {
	c := joinCase{pre: map[string]ast.Term{}, first: -1, plan: rng.Intn(2) == 0}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		r := NewRelation(tab, 1+rng.Intn(3))
		for m := rng.Intn(14); m > 0; m-- {
			tup := make([]ast.Term, r.Arity())
			for j := range tup {
				tup[j] = pool[rng.Intn(len(pool))]
			}
			r.Insert(tup)
		}
		c.rels = append(c.rels, r)
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		ri := rng.Intn(len(c.rels))
		arity := c.rels[ri].Arity()
		if rng.Intn(12) == 0 {
			ri = -1 // a relation that does not exist
		}
		args := make([]ast.Term, arity)
		for j := range args {
			args[j] = drawPattern(rng, pool)
		}
		lo := 0
		if ri >= 0 && rng.Intn(3) == 0 {
			lo = rng.Intn(c.rels[ri].Len() + 1)
		}
		c.lits, c.relOf, c.lo = append(c.lits, args), append(c.relOf, ri), append(c.lo, lo)
	}
	if rng.Intn(3) == 0 {
		c.first = rng.Intn(len(c.lits))
	}
	// Slots bound on entry, as after a competitor head match.
	for i := 0; i < 3; i++ {
		if rng.Intn(4) == 0 {
			c.pre[fmt.Sprintf("X%d", i)] = pool[rng.Intn(len(pool))]
		}
	}
	return c
}

// bindingKey renders the bindings of vars (unbound: "_") as one string.
func bindingKey(vars []ast.Var, val func(ast.Var) ast.Term) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = "_"
		if t := val(v); t != nil {
			parts[i] = t.String()
		}
	}
	return strings.Join(parts, ",")
}

// naiveJoin is the oracle: a nested loop over the literals in source
// order, each tuple at index >= Lo matched argument by argument with
// unify.Match.
func naiveJoin(c joinCase, vars []ast.Var) []string {
	s := unify.NewSubst()
	for name, t := range c.pre {
		s.Bind(ast.Var{Name: name}, t)
	}
	var out []string
	var rec func(k int)
	rec = func(k int) {
		if k == len(c.lits) {
			out = append(out, bindingKey(vars, s.Resolve))
			return
		}
		if c.relOf[k] < 0 {
			return
		}
		r := c.rels[c.relOf[k]]
		for i := c.lo[k]; i < r.Len(); i++ {
			mark := s.Mark()
			ok := true
			for j, t := range r.Tuple(i) {
				if !unify.Match(s, c.lits[k][j], t) {
					ok = false
					break
				}
			}
			if ok {
				rec(k + 1)
			}
			s.Undo(mark)
		}
	}
	rec(0)
	slices.Sort(out)
	return out
}

// frameJoin runs Join over the compiled literals and collects its frames.
func frameJoin(t *testing.T, c joinCase, tab *term.Table) ([]ast.Var, []string) {
	t.Helper()
	var vars []ast.Var
	lits := make([]JoinLit, len(c.lits))
	for i, args := range c.lits {
		lits[i] = JoinLit{Args: CompileArgs(tab, args, &vars), Lo: c.lo[i]}
		if c.relOf[i] >= 0 {
			lits[i].Rel = c.rels[c.relOf[i]]
		}
	}
	for name := range c.pre {
		if !slices.ContainsFunc(vars, func(v ast.Var) bool { return v.Name == name }) {
			vars = append(vars, ast.Var{Name: name})
		}
	}
	f := &Frame{}
	f.Reserve(len(vars))
	for i, v := range vars {
		if pt, ok := c.pre[v.Name]; ok {
			f.Bind(int32(i), tab.Intern(pt))
		}
	}
	entry := slices.Clone(f.Vals)
	res := Resolver{F: f, Tab: tab, Vars: vars}
	var out []string
	err := Join(f, lits, c.first, c.plan, func() error {
		out = append(out, bindingKey(vars, res.Term))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.Vals, entry) {
		t.Fatalf("%v: frame %v after the join, want its entry state %v", c, f.Vals, entry)
	}
	slices.Sort(out)
	return vars, out
}

// TestJoinFrameMatchesNaive: on random small relations and literal lists —
// repeated variables, constants, compounds with variables inside, slots
// bound on entry, delta restrictions, planner on and off — Join yields
// exactly the bindings a nested loop over unify.Match finds. Two pinned
// cases come first, so the repeated-variable shapes never depend on the
// draws: p(X, X) matches only tuples whose columns agree, g(X, X) only
// compounds whose arguments agree.
func TestJoinFrameMatchesNaive(t *testing.T) {
	tab := term.NewTable()
	a, b := ast.Sym("a"), ast.Sym("b")
	p := NewRelation(tab, 2)
	p.Insert([]ast.Term{a, b})
	p.Insert([]ast.Term{b, b})
	q := NewRelation(tab, 1)
	q.Insert([]ast.Term{ast.Compound{Functor: "g", Args: []ast.Term{a, b}}})
	q.Insert([]ast.Term{ast.Compound{Functor: "g", Args: []ast.Term{a, a}}})
	x := ast.Var{Name: "X"}
	for _, tc := range []struct {
		rel  *Relation
		args []ast.Term
		want []string
	}{
		{p, []ast.Term{x, x}, []string{"b"}},
		{q, []ast.Term{ast.Compound{Functor: "g", Args: []ast.Term{x, x}}}, []string{"a"}},
	} {
		c := joinCase{rels: []*Relation{tc.rel}, lits: [][]ast.Term{tc.args}, relOf: []int{0}, lo: []int{0}, first: -1, plan: true}
		if _, got := frameJoin(t, c, tab); !slices.Equal(got, tc.want) {
			t.Errorf("%v: bindings %v, want %v", tc.args, got, tc.want)
		}
	}

	pool := groundPool()
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := term.NewTable()
		c := drawJoin(rng, tab, pool)
		vars, got := frameJoin(t, c, tab)
		want := naiveJoin(c, vars)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: %v\nJoin:  %v\nnaive: %v", seed, c, got, want)
		}
	}
}
