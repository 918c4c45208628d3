package classical_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/classical"
	"repro/internal/interp"
	"repro/internal/oracle/gen"
	"repro/internal/oracle/nafmodels"
	"repro/internal/workload"
)

func mustGround(t *testing.T, rules []*ast.Rule, full bool) *classical.Program {
	t.Helper()
	p, err := classical.GroundRules(rules, classical.Options{Full: full})
	if err != nil {
		t.Fatalf("ground: %v", err)
	}
	return p
}

func TestStratifyAncestor(t *testing.T) {
	rules := workload.AncestorChain(5)
	strat, err := classical.Stratify(rules)
	if err != nil {
		t.Fatalf("stratify: %v", err)
	}
	if strat.NumLevels != 1 {
		t.Errorf("ancestor should be a single stratum, got %d", strat.NumLevels)
	}
	p := mustGround(t, rules, false)
	m := p.StratifiedModel(strat)
	atoms := nafmodels.TrueAtoms(p, m)
	// 4 parent facts + C(5,2)=10 ancestor pairs.
	if len(atoms) != 14 {
		t.Errorf("got %d true atoms, want 14: %v", len(atoms), atoms)
	}
	for _, want := range []string{"anc(c0, c4)", "anc(c3, c4)", "parent(c0, c1)"} {
		found := false
		for _, a := range atoms {
			if a == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing %s in stratified model", want)
		}
	}
}

func TestStratifyDetectsNegativeCycle(t *testing.T) {
	rules := workload.WinMove(workload.CycleEdges(3))
	if _, err := classical.Stratify(rules); err == nil {
		t.Fatal("win-move on a cycle should not be stratified")
	}
	// A chain is not stratified either: win depends negatively on itself
	// at the predicate level regardless of the data.
	rules = workload.WinMove(workload.ChainEdges(3))
	if _, err := classical.Stratify(rules); err == nil {
		t.Fatal("win/move is predicate-level unstratified")
	}
}

func TestStratifiedWithNegation(t *testing.T) {
	// reachable / unreachable: classic two-stratum program.
	x, y, z := ast.Var{Name: "X"}, ast.Var{Name: "Y"}, ast.Var{Name: "Z"}
	node := func(v ast.Term) ast.Atom { return ast.Atom{Pred: "node", Args: []ast.Term{v}} }
	edge := func(a, b ast.Term) ast.Atom { return ast.Atom{Pred: "edge", Args: []ast.Term{a, b}} }
	reach := func(v ast.Term) ast.Atom { return ast.Atom{Pred: "reach", Args: []ast.Term{v}} }
	unreach := func(v ast.Term) ast.Atom { return ast.Atom{Pred: "unreach", Args: []ast.Term{v}} }
	rules := []*ast.Rule{
		{Head: ast.Pos(reach(ast.Sym("a")))},
		{Head: ast.Pos(reach(y)), Body: []ast.Literal{ast.Pos(reach(x)), ast.Pos(edge(x, y))}},
		{Head: ast.Pos(unreach(z)), Body: []ast.Literal{ast.Pos(node(z)), ast.Neg(reach(z))}},
		{Head: ast.Pos(node(ast.Sym("a")))},
		{Head: ast.Pos(node(ast.Sym("b")))},
		{Head: ast.Pos(node(ast.Sym("c")))},
		{Head: ast.Pos(edge(ast.Sym("a"), ast.Sym("b")))},
	}
	strat, err := classical.Stratify(rules)
	if err != nil {
		t.Fatalf("stratify: %v", err)
	}
	if strat.NumLevels != 2 {
		t.Errorf("want 2 strata, got %d", strat.NumLevels)
	}
	p := mustGround(t, rules, false)
	m := p.StratifiedModel(strat)
	atoms := strings.Join(nafmodels.TrueAtoms(p, m), " ")
	if !strings.Contains(atoms, "unreach(c)") || strings.Contains(atoms, "unreach(a)") ||
		strings.Contains(atoms, "unreach(b)") {
		t.Errorf("unexpected stratified model: %s", atoms)
	}
}

func TestWellFoundedWinMoveChain(t *testing.T) {
	// Chain c0 -> c1 -> c2: c2 has no move (lost), c1 wins, c0 loses.
	p := mustGround(t, workload.WinMove(workload.ChainEdges(3)), false)
	wf := p.WellFounded()
	val := func(pred string, arg string) interp.Value {
		id, ok := p.Tab.Lookup(ast.Atom{Pred: pred, Args: []ast.Term{ast.Sym(arg)}})
		if !ok {
			t.Fatalf("atom %s(%s) not interned", pred, arg)
		}
		return wf.Value(id)
	}
	if got := val("win", "c1"); got != interp.True {
		t.Errorf("win(c1) = %v, want T", got)
	}
	if got := val("win", "c0"); got != interp.False {
		t.Errorf("win(c0) = %v, want F", got)
	}
	// win(c2) has no instance with true body; under relevance grounding it
	// may not even be interned — use full grounding to check it is false.
	pf := mustGround(t, workload.WinMove(workload.ChainEdges(3)), true)
	wff := pf.WellFounded()
	id, ok := pf.Tab.Lookup(ast.Atom{Pred: "win", Args: []ast.Term{ast.Sym("c2")}})
	if !ok {
		t.Fatal("win(c2) not interned under full grounding")
	}
	if got := wff.Value(id); got != interp.False {
		t.Errorf("win(c2) = %v, want F", got)
	}
}

func TestWellFoundedWinMoveCycle(t *testing.T) {
	// A 3-cycle leaves every position undefined in the well-founded model.
	p := mustGround(t, workload.WinMove(workload.CycleEdges(3)), false)
	wf := p.WellFounded()
	for i := 0; i < 3; i++ {
		a := ast.Atom{Pred: "win", Args: []ast.Term{ast.Sym("c" + string(rune('0'+i)))}}
		id, ok := p.Tab.Lookup(a)
		if !ok {
			t.Fatalf("%s not interned", a)
		}
		if got := wf.Value(id); got != interp.Undef {
			t.Errorf("win(c%d) = %v, want U", i, got)
		}
	}
}

func TestStableTotalEvenCycle(t *testing.T) {
	// win over a 2-cycle: two total stable models (exactly one side wins).
	p := mustGround(t, workload.WinMove(workload.CycleEdges(2)), false)
	ms, err := nafmodels.StableModelsTotal(p, nafmodels.StableOptions{})
	if err != nil {
		t.Fatalf("stable: %v", err)
	}
	var got []string
	for _, m := range ms {
		got = append(got, strings.Join(nafmodels.TrueAtoms(p, m), ","))
	}
	sort.Strings(got)
	if len(got) != 2 {
		t.Fatalf("want 2 stable models, got %d: %v", len(got), got)
	}
	if !strings.Contains(got[0], "win(c0)") || !strings.Contains(got[1], "win(c1)") {
		t.Errorf("unexpected stable models: %v", got)
	}
}

func TestStableTotalOddCycleHasNone(t *testing.T) {
	p := mustGround(t, workload.WinMove(workload.CycleEdges(3)), false)
	ms, err := nafmodels.StableModelsTotal(p, nafmodels.StableOptions{})
	if err != nil {
		t.Fatalf("stable: %v", err)
	}
	if len(ms) != 0 {
		t.Fatalf("odd win-move cycle should have no total stable model, got %d", len(ms))
	}
}

// TestWFSubsumesStratified: on stratified programs the well-founded model
// is total and equals the perfect model.
func TestWFSubsumesStratified(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rules := gen.RandomPropositional(rng, gen.RandomConfig{
			Atoms: 5, Rules: 7, MaxBody: 2, NegBody: true,
		})
		strat, err := classical.Stratify(rules)
		if err != nil {
			continue // not stratified: skip
		}
		p := mustGround(t, rules, true)
		perfect := p.StratifiedModel(strat)
		wf := p.WellFounded()
		for i := 0; i < p.Tab.Len(); i++ {
			want := interp.False
			if perfect.Get(i) {
				want = interp.True
			}
			if got := wf.Value(interp.AtomID(i)); got != want {
				t.Fatalf("seed %d: atom %s: wf=%v stratified=%v\nprogram: %v",
					seed, p.Tab.Atom(interp.AtomID(i)), got, want, rules)
			}
		}
	}
}

// TestWFIntersectionOfStable: on programs with at least one total stable
// model, the well-founded true/false atoms agree with every total stable
// model ([P3]: the well-founded model is the intersection of the 3-valued
// stable models).
func TestWFIntersectionOfStable(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rules := gen.RandomPropositional(rng, gen.RandomConfig{
			Atoms: 5, Rules: 7, MaxBody: 2, NegBody: true,
		})
		p := mustGround(t, rules, true)
		wf := p.WellFounded()
		ms, err := nafmodels.StableModelsTotal(p, nafmodels.StableOptions{})
		if err != nil {
			t.Fatalf("seed %d: stable: %v", seed, err)
		}
		for _, m := range ms {
			for i := 0; i < p.Tab.Len(); i++ {
				switch wf.Value(interp.AtomID(i)) {
				case interp.True:
					if !m.Get(i) {
						t.Fatalf("seed %d: wf-true atom %s false in stable model", seed, p.Tab.Atom(interp.AtomID(i)))
					}
				case interp.False:
					if m.Get(i) {
						t.Fatalf("seed %d: wf-false atom %s true in stable model", seed, p.Tab.Atom(interp.AtomID(i)))
					}
				}
			}
		}
	}
}

// TestGLStableAreFoundedTotal: total stable models are exactly the total
// founded (= maximal founded, total) 3-valued models.
func TestGLStableAreFoundedTotal(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rules := gen.RandomPropositional(rng, gen.RandomConfig{
			Atoms: 4, Rules: 6, MaxBody: 2, NegBody: true,
		})
		p := mustGround(t, rules, true)
		gl, err := nafmodels.StableModelsTotal(p, nafmodels.StableOptions{})
		if err != nil {
			t.Fatalf("stable: %v", err)
		}
		founded, err := nafmodels.FoundedModels(p, 0)
		if err != nil {
			t.Fatalf("founded: %v", err)
		}
		glSet := make(map[string]bool)
		for _, m := range gl {
			glSet[strings.Join(nafmodels.TrueAtoms(p, m), ",")] = true
		}
		totalFounded := make(map[string]bool)
		for _, m := range founded {
			if m.Total() {
				var pos []string
				for _, a := range m.PosAtoms() {
					pos = append(pos, p.Tab.Atom(a).String())
				}
				sort.Strings(pos)
				totalFounded[strings.Join(pos, ",")] = true
			}
		}
		if len(glSet) != len(totalFounded) {
			t.Fatalf("seed %d: GL %v != total founded %v\nprogram: %v", seed, glSet, totalFounded, rules)
		}
		for k := range glSet {
			if !totalFounded[k] {
				t.Fatalf("seed %d: GL model %q not founded-total", seed, k)
			}
		}
	}
}
