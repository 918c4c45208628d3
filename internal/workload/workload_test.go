package workload_test

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/oracle/gen"
	"repro/internal/workload"
)

func TestAncestorChain(t *testing.T) {
	rules := workload.AncestorChain(5)
	// 2 rules + 4 parent facts.
	if len(rules) != 6 {
		t.Fatalf("got %d rules", len(rules))
	}
	facts := 0
	for _, r := range rules {
		if r.IsFact() {
			facts++
			if r.Head.Atom.Pred != "parent" {
				t.Errorf("fact %s is not a parent fact", r)
			}
		}
	}
	if facts != 4 {
		t.Errorf("facts = %d", facts)
	}
}

func TestAncestorTree(t *testing.T) {
	rules := gen.AncestorTree(2, 3) // binary tree of depth 3
	facts := 0
	for _, r := range rules {
		if r.IsFact() {
			facts++
		}
	}
	// 2 + 4 + 8 = 14 edges.
	if facts != 14 {
		t.Errorf("tree facts = %d, want 14", facts)
	}
}

func TestWinMoveEdges(t *testing.T) {
	if got := len(workload.ChainEdges(5)); got != 4 {
		t.Errorf("chain edges = %d", got)
	}
	if got := len(workload.CycleEdges(5)); got != 5 {
		t.Errorf("cycle edges = %d", got)
	}
	if got := len(workload.CycleEdges(1)); got != 0 {
		t.Errorf("singleton cycle edges = %d", got)
	}
	rng := rand.New(rand.NewSource(1))
	edges := gen.RandomEdges(rng, 5, 10)
	if len(edges) != 10 {
		t.Errorf("random edges = %d", len(edges))
	}
	seen := map[[2]int]bool{}
	for _, e := range edges {
		if e[0] == e[1] {
			t.Error("self loop generated")
		}
		if seen[e] {
			t.Error("duplicate edge")
		}
		seen[e] = true
	}
	// Requesting more edges than exist caps at n(n-1).
	if got := len(gen.RandomEdges(rng, 3, 100)); got != 6 {
		t.Errorf("capped random edges = %d, want 6", got)
	}
}

func TestWinMoveProgram(t *testing.T) {
	rules := workload.WinMove([][2]int{{0, 1}})
	if len(rules) != 2 {
		t.Fatalf("rules = %d", len(rules))
	}
	if rules[0].String() != "win(X) :- move(X, Y), -win(Y)." {
		t.Errorf("win rule = %s", rules[0])
	}
}

func TestInheritance(t *testing.T) {
	p := gen.Inheritance(3, 2, 4)
	if len(p.Components) != 3 {
		t.Fatalf("components = %d", len(p.Components))
	}
	// Each level: 2 property rules + 4 member facts.
	for _, c := range p.Components {
		if len(c.Rules) != 6 {
			t.Errorf("level %s has %d rules", c.Name, len(c.Rules))
		}
	}
	i0, _ := p.ComponentIndex("lvl0")
	i2, _ := p.ComponentIndex("lvl2")
	if !p.Less(i0, i2) {
		t.Error("lvl0 < lvl2 missing")
	}
}

func TestRandomPropositionalShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rules := gen.RandomPropositional(rng, gen.RandomConfig{
		Atoms: 4, Rules: 20, MaxBody: 3, NegHeads: false, NegBody: true,
	})
	if len(rules) != 20 {
		t.Fatalf("rules = %d", len(rules))
	}
	for _, r := range rules {
		if r.Head.Neg {
			t.Error("negative head with NegHeads=false")
		}
		if len(r.Body) > 3 {
			t.Errorf("body too long: %s", r)
		}
		seen := map[string]bool{}
		for _, l := range r.Body {
			if seen[l.Atom.Pred] {
				t.Errorf("repeated body atom in %s", r)
			}
			seen[l.Atom.Pred] = true
		}
	}
}

func TestRandomOrderedIsValidPartialOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.RandomOrdered(rng, 4, gen.RandomConfig{
			Atoms: 4, Rules: 8, MaxBody: 2, NegHeads: true, NegBody: true,
		})
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(p.Components) != 4 {
			t.Errorf("seed %d: components = %d", seed, len(p.Components))
		}
	}
}

func TestRandomDatalogSafeEDB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rules := gen.RandomDatalog(rng, 4, 5, 6)
	facts, nonFacts := 0, 0
	for _, r := range rules {
		if r.IsFact() {
			facts++
			if r.Head.Atom.Pred != "e" || !r.Head.Atom.Ground() {
				t.Errorf("bad fact %s", r)
			}
		} else {
			nonFacts++
			if r.Head.Atom.Pred == "e" {
				t.Errorf("rule redefines the EDB: %s", r)
			}
		}
	}
	if facts != 5 || nonFacts != 6 {
		t.Errorf("facts=%d rules=%d", facts, nonFacts)
	}
}

func TestDeterministicGenerators(t *testing.T) {
	a := gen.RandomPropositional(rand.New(rand.NewSource(42)), gen.RandomConfig{
		Atoms: 5, Rules: 10, MaxBody: 2, NegHeads: true, NegBody: true,
	})
	b := gen.RandomPropositional(rand.New(rand.NewSource(42)), gen.RandomConfig{
		Atoms: 5, Rules: 10, MaxBody: 2, NegHeads: true, NegBody: true,
	})
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("same seed produced different rule %d: %s vs %s", i, a[i], b[i])
		}
	}
	_ = ast.Rule{} // keep ast import for future expansions
}
