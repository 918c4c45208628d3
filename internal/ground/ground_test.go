package ground

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/classical"
	"repro/internal/parser"
)

func parse(t testing.TB, src string) *ast.OrderedProgram {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestUniverseConstantsOnly(t *testing.T) {
	p := parse(t, "p(a, 2).\nq(b) :- p(b, X).\n")
	u, err := Universe(p, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := termStrings(u); got != "2 a b" {
		t.Errorf("universe = %q, want \"2 a b\"", got)
	}
}

func termStrings(ts []ast.Term) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

func TestUniverseEmptyProgram(t *testing.T) {
	p := parse(t, "p :- q.\n")
	u, err := Universe(p, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != 0 {
		t.Errorf("propositional program universe = %v, want empty", u)
	}
}

func TestUniverseFreshConstant(t *testing.T) {
	// Variables but no constants: the conventional u0 keeps it non-empty.
	p := parse(t, "p(X) :- q(X).\n")
	u, err := Universe(p, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if termStrings(u) != "u0" {
		t.Errorf("universe = %v, want [u0]", u)
	}
}

func TestUniverseFunctors(t *testing.T) {
	p := parse(t, "p(f(a)).\n")
	// Default depth: the deepest program term (1), so f(a) and f(f(a))
	// is NOT constructible but f(a) is.
	u, err := Universe(p, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := termStrings(u); got != "a f(a)" {
		t.Errorf("universe depth default = %q", got)
	}
	u2, err := Universe(p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := termStrings(u2); got != "a f(a) f(f(a))" {
		t.Errorf("universe depth 2 = %q", got)
	}
	// Depth 0 keeps constants only.
	u0, err := Universe(p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := termStrings(u0); got != "a" {
		t.Errorf("universe depth 0 = %q", got)
	}
}

func TestUniverseBinaryFunctor(t *testing.T) {
	p := parse(t, "p(g(a, b)).\n")
	u, err := Universe(p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// a, b and the four depth-1 terms g(x,y).
	if len(u) != 6 {
		t.Errorf("universe = %v, want 6 terms", u)
	}
}

func TestUniverseBudget(t *testing.T) {
	p := parse(t, "p(g(a, b)).\n")
	if _, err := Universe(p, 3, 10); err == nil {
		t.Error("budget not enforced")
	} else if _, ok := err.(*ErrBudget); !ok {
		t.Errorf("error type %T", err)
	}
}

func TestGroundPropositional(t *testing.T) {
	p := parse(t, "a.\nb :- a, -c.\n")
	for _, mode := range []Mode{ModeSmart, ModeFull} {
		opts := DefaultOptions()
		opts.Mode = mode
		g, err := GroundCtx(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := 2
		if mode == ModeSmart {
			// -c is underivable (no negative rules at all), so the rule
			// b :- a, -c can never fire, competes with nothing, and is
			// correctly dropped as semantically inert.
			want = 1
		} else if g.Tab.Len() != 3 {
			t.Errorf("full mode interned %d atoms, want 3", g.Tab.Len())
		}
		if g.Rules.Len() != want {
			t.Errorf("mode %v: %d rules, want %d", mode, g.Rules.Len(), want)
		}
	}
}

func TestGroundInstantiation(t *testing.T) {
	p := parse(t, "bird(tweety).\nbird(sam).\nfly(X) :- bird(X).\n")
	opts := DefaultOptions()
	opts.Mode = ModeFull
	g, err := GroundCtx(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 2 facts + 2 instances of the rule.
	if g.Rules.Len() != 4 {
		t.Errorf("%d ground rules, want 4", g.Rules.Len())
	}
	// Full Herbrand base: bird and fly over 2 constants.
	if g.Tab.Len() != 4 {
		t.Errorf("%d atoms, want 4", g.Tab.Len())
	}
}

func TestGroundBuiltinsFilter(t *testing.T) {
	p := parse(t, "n(1). n(2). n(3).\nbig(X) :- n(X), X > 1.\n")
	g, err := GroundCtx(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, r := range g.rules() {
		if g.Tab.Atom(r.Head.Atom()).Pred == "big" {
			count++
		}
	}
	if count != 2 {
		t.Errorf("big instances = %d, want 2", count)
	}
}

// TestTargetOwnedByManyComponents: a head derived in more components than
// a chunk of the target pool holds — forty modules asserting p, and a
// competitor -p :- q beside them — keeps every owner, so the smart
// grounding still equals the full one.
func TestTargetOwnedByManyComponents(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "module m%d { p. }\n", i)
	}
	b.WriteString("module top { -p :- q. }\n")
	p := parse(t, b.String())
	smart, err := GroundCtx(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Mode = ModeFull
	full, err := GroundCtx(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ruleStringSet(smart), ruleStringSet(full); !maps.Equal(got, want) {
		t.Fatalf("smart grounding %v, full %v", got, want)
	}
}

func TestGroundDedupAcrossComponents(t *testing.T) {
	// The same rule in two components yields two distinct instances
	// (the paper treats them as distinct); within one component it is
	// deduplicated.
	p := parse(t, `
module a { p. p. }
module b { p. }
order a < b.
`)
	g, err := GroundCtx(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.Rules.Len() != 2 {
		t.Errorf("%d instances, want 2 (one per component)", g.Rules.Len())
	}
}

// TestGroundInstanceBudget: the instance and atom budgets are exact in
// both modes — a budget one below the grounding's size is rejected with
// ErrBudget, a budget equal to it is accepted.
func TestGroundInstanceBudget(t *testing.T) {
	p := parse(t, `
module c {
  edge(a, b). edge(b, c). edge(c, d).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- edge(X, Y), path(Y, Z).
}
`)
	for _, tc := range []struct {
		mode             Mode
		instances, atoms int
	}{
		{ModeSmart, 9, 9},  // 3 facts + 6 derivable path instances over 9 relevant atoms
		{ModeFull, 83, 32}, // 3 + 4² + 4³ instances over the 2·4² Herbrand base
	} {
		opts := DefaultOptions()
		opts.Mode = tc.mode
		g, err := GroundCtx(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("mode %v: %v", tc.mode, err)
		}
		if g.Rules.Len() != tc.instances || g.Tab.Len() != tc.atoms {
			t.Fatalf("mode %v: %d instances over %d atoms, want %d over %d",
				tc.mode, g.Rules.Len(), g.Tab.Len(), tc.instances, tc.atoms)
		}
		for _, b := range []struct {
			name string
			set  func(o *Options, n int)
			n    int
		}{
			{"MaxInstances", func(o *Options, n int) { o.MaxInstances = n }, tc.instances},
			{"MaxAtoms", func(o *Options, n int) { o.MaxAtoms = n }, tc.atoms},
		} {
			opts := DefaultOptions()
			opts.Mode = tc.mode
			b.set(&opts, b.n-1)
			var be *ErrBudget
			if _, err := GroundCtx(context.Background(), p, opts); !errors.As(err, &be) {
				t.Errorf("mode %v %s=%d: err = %v, want ErrBudget", tc.mode, b.name, b.n-1, err)
			}
			b.set(&opts, b.n)
			if _, err := GroundCtx(context.Background(), p, opts); err != nil {
				t.Errorf("mode %v %s=%d (exactly the size): %v", tc.mode, b.name, b.n, err)
			}
		}
	}
}

// TestParallelGroundingBudgets: concurrent Ground calls over one shared
// program each enforce their own MaxInstances budget exactly — n-1 is
// rejected, n is accepted — so budgets carry no state between groundings.
func TestParallelGroundingBudgets(t *testing.T) {
	p := parse(t, `
module c {
  edge(a, b). edge(b, c). edge(c, d).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- edge(X, Y), path(Y, Z).
}
`)
	seq, err := GroundCtx(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := seq.Rules.Len()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := DefaultOptions()
			opts.MaxInstances = n - i%2 // even workers: exactly n; odd: n-1
			_, errs[i] = GroundCtx(context.Background(), p, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		var be *ErrBudget
		if i%2 == 1 && !errors.As(err, &be) {
			t.Errorf("worker %d: budget %d on %d instances: err = %v, want ErrBudget", i, n-1, n, err)
		}
		if i%2 == 0 && err != nil {
			t.Errorf("worker %d: budget exactly at the instance count rejected: %v", i, err)
		}
	}
}

func TestRuleString(t *testing.T) {
	p := parse(t, "bird(tweety).\nfly(tweety) :- bird(tweety).\n")
	g, err := GroundCtx(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var rule *Rule
	for _, r := range g.rules() {
		if len(r.Body) > 0 {
			rule = &r
		}
	}
	if rule == nil {
		t.Fatal("rule instance missing")
	}
	if got := g.RuleString(*rule); got != "fly(tweety) :- bird(tweety)." {
		t.Errorf("RuleString = %q", got)
	}
}

func TestSmartKeepsNeverFireableCompetitors(t *testing.T) {
	// The defining subtlety of ordered grounding: the rule -p :- q can
	// never fire (q is underivable) but permanently defeats the fact p,
	// so it must be retained.
	p := parse(t, "p.\n-p :- q.\n")
	g, err := GroundCtx(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.Rules.Len() != 2 {
		t.Fatalf("smart grounding kept %d rules, want 2", g.Rules.Len())
	}
}

func TestSmartEDBSimplification(t *testing.T) {
	// OV-shaped program: anc's recursive competitor instances must join
	// parent against the facts instead of the whole universe.
	p := parse(t, `
module cwa {
  -parent(X1, X2).
  -anc(X1, X2).
}
module c {
  parent(a, b). parent(b, c).
  anc(X, Y) :- parent(X, Y).
  anc(X, Y) :- parent(X, Z), anc(Z, Y).
}
order c < cwa.
`)
	g, err := GroundCtx(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Without the simplification the recursive rule alone would have
	// n^3 = 27 instances; with it, only parent-fact-supported ones.
	recursive := 0
	for _, r := range g.rules() {
		if len(r.Body) == 2 {
			recursive++
		}
	}
	if recursive > 6 {
		t.Errorf("recursive instances = %d; EDB simplification not applied", recursive)
	}
	// And the CWA facts still cover the full base of both predicates.
	cwaFacts := 0
	for _, r := range g.rules() {
		if r.Head.Neg() && len(r.Body) == 0 {
			cwaFacts++
		}
	}
	if cwaFacts != 18 {
		t.Errorf("CWA instances = %d, want 18 (2 preds x 9)", cwaFacts)
	}
}

func TestTopComponentDetection(t *testing.T) {
	p := parse(t, `
module a { x. }
module b { y. }
module top { z. }
order a < top.
order b < top.
`)
	g := &grounder{src: p}
	ti, ok := p.ComponentIndex("top")
	if !ok {
		t.Fatal("missing top")
	}
	if got := g.topComponent(); got != ti {
		t.Errorf("topComponent = %d, want %d", got, ti)
	}
	// No unique top when two maximal components exist.
	q := parse(t, `
module a { x. }
module b { y. }
`)
	g2 := &grounder{src: q}
	if got := g2.topComponent(); got != -1 {
		t.Errorf("topComponent = %d, want -1", got)
	}
}

func TestIsUniversalNegFact(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"-p(X1, X2).", true},
		{"-p.", true},
		{"-p(X, X).", false}, // repeated variable: diagonal only
		{"-p(a, X).", false}, // constant argument
		{"-p(X) :- q(X).", false},
		{"p(X1).", false}, // positive
	}
	for _, c := range cases {
		r, err := parser.ParseRule(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := isUniversalNegFact(r); got != c.want {
			t.Errorf("isUniversalNegFact(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

// TestUniverseKeepsKinds: a program built through the Go API holding both
// the integer 1 and the symbol "1" grounds over a universe of two, and a
// head-only variable ranges over both — as the classical grounder's does.
func TestUniverseKeepsKinds(t *testing.T) {
	rules := []*ast.Rule{
		ast.Fact(ast.Literal{Atom: ast.Atom{Pred: "p", Args: []ast.Term{ast.Int(1)}}}),
		ast.Fact(ast.Literal{Atom: ast.Atom{Pred: "p", Args: []ast.Term{ast.Sym("1")}}}),
		ast.Fact(ast.Literal{Atom: ast.Atom{Pred: "q", Args: []ast.Term{ast.Var{Name: "X"}}}}),
	}
	p := ast.SingleComponent("m", rules)
	gp, err := GroundCtx(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(gp.Universe) != 2 {
		t.Fatalf("universe = %v, want the integer 1 and the symbol \"1\"", gp.Universe)
	}
	cp, err := classical.GroundRules(rules, classical.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(cp.Rules), gp.Rules.Len(); got != want || want != 4 {
		t.Fatalf("classical grounds %d instances, smart %d; want 4 each (two p facts, q over both constants)", got, want)
	}
}
