package proof_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/oracle/gen"
	"repro/internal/parser"
	"repro/internal/proof"
)

func litOf(t *testing.T, v *eval.View, s string) interp.Lit {
	t.Helper()
	l, err := parser.ParseLiteral(s)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := v.G.Tab.Lookup(l.Atom)
	if !ok {
		t.Fatalf("atom %s not interned", l.Atom)
	}
	return interp.MkLit(id, l.Neg)
}

// explain reads l's tree off the stages of v's fixpoint.
func explain(t *testing.T, v *eval.View, l interp.Lit) (*proof.Tree, bool, error) {
	t.Helper()
	stages, err := v.StagesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return proof.Explain(v, stages, l)
}

func TestExplainTree(t *testing.T) {
	v := viewOf(t, `
module c2 {
  bird(penguin).
  fly(X) :- bird(X).
}
module c1 extends c2 {
  ground_animal(penguin).
  -fly(X) :- ground_animal(X).
}
`, "c1")
	tree, ok, err := explain(t, v, litOf(t, v, "-fly(penguin)"))
	if err != nil || !ok {
		t.Fatalf("Explain: %v %v", ok, err)
	}
	out := tree.Render(v)
	for _, want := range []string{
		"proved -fly(penguin)",
		"-fly(penguin) :- ground_animal(penguin).",
		"needs ground_animal(penguin)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The unprovable direction returns ok=false without a tree.
	tree2, ok2, err := explain(t, v, litOf(t, v, "fly(penguin)"))
	if err != nil {
		t.Fatal(err)
	}
	if ok2 || tree2 != nil {
		t.Error("unprovable literal explained")
	}
}

func TestExplainRefutations(t *testing.T) {
	// The fact p is defended against the competitor -p :- q by proving
	// -q... there is no rule for -q, so instead use a competitor whose
	// body complement is derivable.
	v := viewOf(t, `
p.
-p :- q.
-q.
`, "main")
	tree, ok, err := explain(t, v, litOf(t, v, "p"))
	if err != nil || !ok {
		t.Fatalf("Explain(p): %v %v", ok, err)
	}
	out := tree.Render(v)
	if !strings.Contains(out, "blocks competitor -p :- q.") || !strings.Contains(out, "via -q") {
		t.Errorf("refutation missing:\n%s", out)
	}
}

// TestExplainConsistentWithProve: whenever Prove succeeds, Explain builds
// a tree whose every node is itself provable.
func TestExplainConsistentWithProve(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.RandomOrdered(rng, 1+rng.Intn(2), gen.RandomConfig{
			Atoms: 4, Rules: 8, MaxBody: 2, NegHeads: true, NegBody: true,
		})
		g, err := ground.GroundCtx(context.Background(), p, ground.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for ci := range p.Components {
			v := eval.NewView(g, ci)
			least, err := v.LeastModelCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range least.Lits() {
				tree, ok, err := explain(t, v, l)
				if err != nil || !ok {
					t.Fatalf("seed %d: Explain(%s) failed: %v %v", seed, g.Tab.LitString(l), ok, err)
				}
				// Every node is in the least model and no node is its own
				// ancestor (the witness is well-founded).
				onPath := map[*proof.Tree]bool{}
				done := map[*proof.Tree]bool{}
				var walk func(t2 *proof.Tree)
				walk = func(t2 *proof.Tree) {
					if onPath[t2] {
						t.Fatalf("seed %d: circular justification through %s",
							seed, g.Tab.LitString(t2.Goal))
					}
					if done[t2] {
						return
					}
					onPath[t2] = true
					if !least.HasLit(t2.Goal) {
						t.Fatalf("seed %d: tree node %s not in least model", seed, g.Tab.LitString(t2.Goal))
					}
					for _, s := range t2.Body {
						walk(s)
					}
					for _, r := range t2.Refutations {
						walk(r.Blocker)
					}
					delete(onPath, t2)
					done[t2] = true
				}
				walk(tree)
			}
		}
	}
}
