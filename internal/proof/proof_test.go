package proof_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/oracle/gen"
	"repro/internal/oracle/naive"
	"repro/internal/oracle/parsetest"
	"repro/internal/parser"
	"repro/internal/proof"
	"repro/internal/transform"
	"repro/internal/workload"
)

func viewOf(t *testing.T, src, comp string) *eval.View {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ground.GroundCtx(context.Background(), p, ground.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v, err := naive.NewViewByName(g, comp)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestProveFig1(t *testing.T) {
	v := viewOf(t, `
module c2 {
  bird(penguin). bird(pigeon).
  fly(X) :- bird(X).
  -ground_animal(X) :- bird(X).
}
module c1 extends c2 {
  ground_animal(penguin).
  -fly(X) :- ground_animal(X).
}
`, "c1")
	pr := proof.New(v, 0)
	check := func(lit string, want bool) {
		t.Helper()
		l, err := parser.ParseLiteral(lit)
		if err != nil {
			t.Fatal(err)
		}
		id, ok := v.G.Tab.Lookup(l.Atom)
		if !ok {
			t.Fatalf("atom %s not interned", l.Atom)
		}
		got, err := pr.ProveCtx(context.Background(), interp.MkLit(id, l.Neg))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Prove(%s) = %v, want %v", lit, got, want)
		}
	}
	check("fly(pigeon)", true)
	check("-fly(penguin)", true)
	check("fly(penguin)", false)
	check("ground_animal(penguin)", true)
	check("-ground_animal(pigeon)", true)
	check("ground_animal(pigeon)", false)
}

// TestProveMatchesLeastModel: soundness and completeness of the prover
// w.r.t. lfp(V) on random ordered programs, every component, every
// literal of the atom table.
func TestProveMatchesLeastModel(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.RandomOrdered(rng, 1+rng.Intn(3), gen.RandomConfig{
			Atoms: 4 + rng.Intn(3), Rules: 8 + rng.Intn(6), MaxBody: 2,
			NegHeads: true, NegBody: true,
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
			pr := proof.New(v, 0)
			for a := 0; a < g.Tab.Len(); a++ {
				for _, neg := range []bool{false, true} {
					l := interp.MkLit(interp.AtomID(a), neg)
					got, err := pr.ProveCtx(context.Background(), l)
					if err != nil {
						t.Fatal(err)
					}
					if want := least.HasLit(l); got != want {
						t.Fatalf("seed %d comp %d: Prove(%s) = %v but least membership = %v\nleast = %s\nprogram:\n%s",
							seed, ci, g.Tab.LitString(l), got, want, least, p)
					}
				}
			}
		}
	}
}

// TestProveOnDatalogOV: the prover answers reachability queries on an
// OV-translated ancestor program, including derived negations.
func TestProveOnDatalogOV(t *testing.T) {
	rules := workload.AncestorChain(8)
	ov, err := transform.OV("c", rules)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ground.GroundCtx(context.Background(), ov, ground.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v, err := naive.NewViewByName(g, "c")
	if err != nil {
		t.Fatal(err)
	}
	least, err := v.LeastModelCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pr := proof.New(v, 0)
	for a := 0; a < g.Tab.Len(); a++ {
		for _, neg := range []bool{false, true} {
			l := interp.MkLit(interp.AtomID(a), neg)
			got, err := pr.ProveCtx(context.Background(), l)
			if err != nil {
				t.Fatal(err)
			}
			if want := least.HasLit(l); got != want {
				t.Fatalf("Prove(%s) = %v, least = %v", g.Tab.LitString(l), got, want)
			}
		}
	}
}

func TestProverMemoisation(t *testing.T) {
	v := viewOf(t, "a.\nb :- a.\nc :- b.\n", "main")
	pr := proof.New(v, 0)
	id, _ := v.G.Tab.Lookup(parsetest.MustParseLiteral("c").Atom)
	for i := 0; i < 3; i++ {
		ok, err := pr.ProveCtx(context.Background(), interp.MkLit(id, false))
		if err != nil || !ok {
			t.Fatalf("round %d: %v %v", i, ok, err)
		}
	}
}

func TestProverCycleTermination(t *testing.T) {
	// Pure circular support must fail finitely.
	v := viewOf(t, "p :- p.\nq :- r.\nr :- q.\n", "main")
	pr := proof.New(v, 0)
	for _, name := range []string{"p", "q", "r"} {
		id, ok := v.G.Tab.Lookup(parsetest.MustParseLiteral(name).Atom)
		if !ok {
			continue
		}
		got, err := pr.ProveCtx(context.Background(), interp.MkLit(id, false))
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Errorf("circular %s proved", name)
		}
	}
}
