// Differentials pinning the production fixpoints to the naive oracles:
// the stages the semi-naive V loop records to the rounds of V iterated
// from ∅, and the one lfp(T) behind TEnabled and Possible to a
// round-robin sweep of the rules.
package eval_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/oracle/gen"
	"repro/internal/oracle/naive"
	"repro/internal/parser"
)

// namedView is a component's view named for failure messages.
type namedView struct {
	name string
	v    *eval.View
}

// stagedViews is every component's view of 40 random ordered Datalog
// programs, the testdata corpus and the read tenant at (24, 12), in a
// fixed order.
func stagedViews(t *testing.T) []namedView {
	t.Helper()
	ctx := context.Background()
	srcs := map[string]string{"reads(24,12)": gen.ReadsSource(24, 12)}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.olp"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(b)
	}
	var views []namedView
	add := func(name string, g *ground.Program) {
		for c, comp := range g.Src.Components {
			views = append(views, namedView{name + " " + comp.Name, eval.NewView(g, c)})
		}
	}
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res, err := parser.Parse(srcs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := ground.GroundCtx(ctx, res.Program, ground.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, g)
	}
	for seed := int64(0); seed < 40; seed++ {
		p := gen.RandomOrderedDatalog(rand.New(rand.NewSource(seed)), 3, 3)
		g, err := ground.GroundCtx(ctx, p, ground.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("seed %d", seed), g)
	}
	return views
}

// TestStagesMatchNaive: the stage StagesCtx records for every literal is
// the round of the naive V iteration that first derives it, and a literal
// outside the least model has none.
func TestStagesMatchNaive(t *testing.T) {
	ctx := context.Background()
	for _, nv := range stagedViews(t) {
		name, v := nv.name, nv.v
		stages, err := v.StagesCtx(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		least, want, err := naive.StagesNaiveCtx(ctx, v)
		if err != nil {
			t.Fatalf("%s: naive: %v", name, err)
		}
		if len(stages) != 2*v.NumAtoms() {
			t.Fatalf("%s: %d stages for %d atoms", name, len(stages), v.NumAtoms())
		}
		for i, got := range stages {
			l := interp.Lit(i)
			if got != want[l] {
				t.Fatalf("%s: %s at stage %d, naive round %d", name, v.G.Tab.LitString(l), got, want[l])
			}
			if (got != 0) != least.HasLit(l) {
				t.Fatalf("%s: %s staged %d, in the least model %v", name, v.G.Tab.LitString(l), got, least.HasLit(l))
			}
		}
	}
}

// TestTClosureMatchesNaive: Possible is the round-robin lfp(T) over every
// visible rule, and TEnabled the one over the applied rules, on the least
// model, on extensions of it that decide its undefined atoms at random,
// and on random consistent interpretations.
func TestTClosureMatchesNaive(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(62))
	for _, nv := range stagedViews(t) {
		name, v := nv.name, nv.v
		pos, neg := v.Possible()
		wantPos, wantNeg := naive.TClosure(v, nil)
		if !pos.Equal(wantPos) || !neg.Equal(wantNeg) {
			t.Fatalf("%s: Possible = %v / %v, round-robin %v / %v", name, pos.Bits(), neg.Bits(), wantPos.Bits(), wantNeg.Bits())
		}
		least, err := v.LeastModelCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ms := []*interp.Interp{least}
		for trial := 0; trial < 3; trial++ {
			m := least.Clone()
			for _, a := range m.Undefined() {
				if k := rng.Intn(3); k < 2 {
					m.AddLit(interp.MkLit(a, k == 1))
				}
			}
			ms = append(ms, m, randomInterp(rng, v.G.Tab))
		}
		for _, m := range ms {
			got := v.TEnabled(m)
			wantPos, wantNeg := naive.TClosure(v, m)
			if want := interp.FromBitsets(v.G.Tab, wantPos, wantNeg); !got.Equal(want) {
				t.Fatalf("%s: TEnabled(%s) = %s, round-robin %s", name, m, got, want)
			}
		}
	}
}
