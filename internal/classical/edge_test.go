package classical_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/classical"
	"repro/internal/interp"
	"repro/internal/oracle/gen"
	"repro/internal/oracle/nafmodels"
	"repro/internal/parser"
	"repro/internal/workload"
)

func rulesOf(t *testing.T, src string) []*ast.Rule {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p.Components[0].Rules
}

// The canonical p :- not p: well-founded leaves p undefined, no total
// stable model exists, the only founded model is {}.
func TestSelfNegation(t *testing.T) {
	p := mustGround(t, rulesOf(t, "p :- -p.\n"), true)
	wf := p.WellFounded()
	id, _ := p.Tab.Lookup(ast.Atom{Pred: "p"})
	if wf.Value(id) != interp.Undef {
		t.Errorf("wf(p) = %v, want U", wf.Value(id))
	}
	ms, err := nafmodels.StableModelsTotal(p, nafmodels.StableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Errorf("p :- not p has %d total stable models", len(ms))
	}
	founded, err := nafmodels.FoundedModels(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Founded models: {} and... {-p}? -p ∈ M means p false; vacuous
	// foundedness constrains only M+; 3-valued model condition: head p
	// has value F, body -p has value T: F >= T fails -> {-p} is not a
	// 3-valued model. {p}: body -p = F <= head T ok; founded? p needs
	// support: rule applied iff -p in M — no. So {p} unfounded.
	if len(founded) != 1 || founded[0].Len() != 0 {
		var got []string
		for _, m := range founded {
			got = append(got, m.String())
		}
		t.Errorf("founded models = %v, want [{}]", got)
	}
}

// Support through double negation: p :- not q, q :- not p is the classic
// two-stable-model program.
func TestEvenNegationLoop(t *testing.T) {
	p := mustGround(t, rulesOf(t, "p :- -q.\nq :- -p.\n"), true)
	wf := p.WellFounded()
	pid, _ := p.Tab.Lookup(ast.Atom{Pred: "p"})
	qid, _ := p.Tab.Lookup(ast.Atom{Pred: "q"})
	if wf.Value(pid) != interp.Undef || wf.Value(qid) != interp.Undef {
		t.Error("wf should leave both undefined")
	}
	ms, err := nafmodels.StableModelsTotal(p, nafmodels.StableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("want 2 stable models, got %d", len(ms))
	}
	var got []string
	for _, m := range ms {
		got = append(got, strings.Join(nafmodels.TrueAtoms(p, m), ","))
	}
	if !(contains(got, "p") && contains(got, "q")) {
		t.Errorf("stable models = %v", got)
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// Deep stratification: a chain of negations across predicates.
func TestDeepStrata(t *testing.T) {
	src := `
a0.
a1 :- -a0.
a2 :- -a1.
a3 :- -a2.
a4 :- -a3.
`
	rules := rulesOf(t, src)
	strat, err := classical.Stratify(rules)
	if err != nil {
		t.Fatal(err)
	}
	if strat.NumLevels != 5 {
		t.Errorf("levels = %d, want 5", strat.NumLevels)
	}
	p := mustGround(t, rules, true)
	m := p.StratifiedModel(strat)
	want := map[string]bool{"a0": true, "a1": false, "a2": true, "a3": false, "a4": true}
	for name, expect := range want {
		id, ok := p.Tab.Lookup(ast.Atom{Pred: name})
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if m.Get(int(id)) != expect {
			t.Errorf("%s = %v, want %v", name, m.Get(int(id)), expect)
		}
	}
	// The well-founded model agrees and is total.
	wf := p.WellFounded()
	for name, expect := range want {
		id, _ := p.Tab.Lookup(ast.Atom{Pred: name})
		wantV := interp.False
		if expect {
			wantV = interp.True
		}
		if wf.Value(id) != wantV {
			t.Errorf("wf(%s) = %v, want %v", name, wf.Value(id), wantV)
		}
	}
}

// A non-ground stratified program with NAF over joined variables.
func TestStratifiedNonGround(t *testing.T) {
	src := `
edge(a, b). edge(b, c). edge(a, c).
node(a). node(b). node(c).
sink(X) :- node(X), -hasout(X).
hasout(X) :- edge(X, Y).
`
	rules := rulesOf(t, src)
	strat, err := classical.Stratify(rules)
	if err != nil {
		t.Fatal(err)
	}
	p := mustGround(t, rules, false)
	m := p.StratifiedModel(strat)
	atoms := strings.Join(nafmodels.TrueAtoms(p, m), " ")
	if !strings.Contains(atoms, "sink(c)") || strings.Contains(atoms, "sink(a)") || strings.Contains(atoms, "sink(b)") {
		t.Errorf("sinks wrong: %s", atoms)
	}
}

// Unsafe classical rules are rejected with a useful message.
func TestClassicalSafetyErrors(t *testing.T) {
	for _, src := range []string{
		"p :- -q(X).\n",       // var only in a negated literal
		"p :- q(X), X > Y.\n", // builtin var unbound
	} {
		if _, err := classical.GroundRules(rulesOf(t, src), classical.Options{}); err == nil {
			t.Errorf("unsafe program accepted: %s", src)
		}
	}
	// Head-only variables are allowed (they range over the constants).
	src := "p(X).\nq(a).\n"
	cp, err := classical.GroundRules(rulesOf(t, src), classical.Options{})
	if err != nil {
		t.Fatalf("head-only var rejected: %v", err)
	}
	if cp.Tab.Len() < 2 {
		t.Errorf("head-only var instantiation missing: %d atoms", cp.Tab.Len())
	}
}

// Negative heads are rejected by the classical pipeline.
func TestClassicalRejectsNegativeHeads(t *testing.T) {
	if _, err := classical.GroundRules(rulesOf(t, "-p.\n"), classical.Options{}); err == nil {
		t.Error("negative head accepted")
	}
}

// Budget errors propagate.
func TestClassicalBudget(t *testing.T) {
	rules := rulesOf(t, `
e(a, b). e(b, c). e(c, d). e(d, e2). e(e2, f).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
`)
	if _, err := classical.GroundRules(rules, classical.Options{MaxDerived: 3}); err == nil {
		t.Error("budget not enforced")
	}
}

// TestBacktrackingMatchesDPLL: the [SZ] backtracking fixpoint enumerates
// exactly the same total stable models as the WFS-prefixed DPLL search on
// random programs and on the win-move workloads.
func TestBacktrackingMatchesDPLL(t *testing.T) {
	check := func(t *testing.T, p *classical.Program, tag string) {
		t.Helper()
		a, err := nafmodels.StableModelsTotal(p, nafmodels.StableOptions{})
		if err != nil {
			t.Fatalf("%s: dpll: %v", tag, err)
		}
		b, err := nafmodels.StableModelsBacktracking(p, nafmodels.StableOptions{})
		if err != nil {
			t.Fatalf("%s: backtracking: %v", tag, err)
		}
		as := make(map[string]bool)
		for _, m := range a {
			as[strings.Join(nafmodels.TrueAtoms(p, m), ",")] = true
		}
		bs := make(map[string]bool)
		for _, m := range b {
			bs[strings.Join(nafmodels.TrueAtoms(p, m), ",")] = true
		}
		if len(as) != len(bs) {
			t.Fatalf("%s: %d vs %d stable models", tag, len(as), len(bs))
		}
		for k := range as {
			if !bs[k] {
				t.Fatalf("%s: model %q missing from backtracking enumeration", tag, k)
			}
		}
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rules := gen.RandomPropositional(rng, gen.RandomConfig{
			Atoms: 5, Rules: 8, MaxBody: 2, NegBody: true,
		})
		check(t, mustGround(t, rules, true), "random")
	}
	for _, n := range []int{3, 4, 5, 6} {
		check(t, mustGround(t, workload.WinMove(workload.CycleEdges(n)), false),
			"cycle")
	}
}

// HeadRules index is consistent.
func TestHeadRulesIndex(t *testing.T) {
	p := mustGround(t, rulesOf(t, "a.\na :- b.\nb.\n"), true)
	id, _ := p.Tab.Lookup(ast.Atom{Pred: "a"})
	if got := len(nafmodels.HeadRules(p, id)); got != 2 {
		t.Errorf("HeadRules(a) = %d, want 2", got)
	}
}
