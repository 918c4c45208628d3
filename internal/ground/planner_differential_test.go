// Differential tests pinning the selectivity-driven join planner to its
// source-order ablation: planning changes join cost, never join results.
// The population mirrors internal/eval's differential suite (random
// propositional, random non-ground Datalog, inheritance hierarchies) so
// both grounding joins and the possible-atom fixpoint are exercised on the
// same ~200 seeded programs. Models are compared by canonical string —
// different grounding runs assign different atom ids, so id-level
// comparison would be meaningless.
package ground_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/oracle/gen"
)

// plannerPrograms yields ≥200 seeded programs mixing every random workload
// family plus deterministic inheritance hierarchies.
func plannerPrograms(t *testing.T) []*ast.OrderedProgram {
	t.Helper()
	var progs []*ast.OrderedProgram
	// 80 random propositional ordered programs.
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		progs = append(progs, gen.RandomOrdered(rng, 1+rng.Intn(4), gen.RandomConfig{
			Atoms: 3 + rng.Intn(5), Rules: 5 + rng.Intn(10), MaxBody: 3,
			NegHeads: true, NegBody: true,
		}))
	}
	// 80 random non-ground ordered Datalog programs.
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed + 1_000))
		progs = append(progs, gen.RandomOrderedDatalog(rng, 1+rng.Intn(3), 2+rng.Intn(3)))
	}
	// 48 inheritance hierarchies sweeping depth, properties and members.
	for depth := 1; depth <= 4; depth++ {
		for props := 1; props <= 4; props++ {
			for members := 1; members <= 3; members++ {
				progs = append(progs, gen.Inheritance(depth, props, members))
			}
		}
	}
	if len(progs) < 200 {
		t.Fatalf("planner differential population too small: %d < 200", len(progs))
	}
	return progs
}

// leastModelStrings grounds p under opts and returns the canonical least
// model of every component, in component order.
func leastModelStrings(t *testing.T, p *ast.OrderedProgram, opts ground.Options) []string {
	t.Helper()
	g, err := ground.GroundCtx(context.Background(), p, opts)
	if err != nil {
		t.Fatalf("ground: %v", err)
	}
	out := make([]string, len(p.Components))
	for ci := range p.Components {
		m, err := eval.NewView(g, ci).LeastModelCtx(context.Background())
		if err != nil {
			t.Fatalf("comp %d: least model: %v", ci, err)
		}
		out[ci] = m.String()
	}
	return out
}

// TestDifferentialJoinPlanner: on every seeded program, grounding with the
// join planner enabled and disabled yields identical least models in every
// component. The planner reorders joins in the possible-atom fixpoint, the
// fireable pass and the competitor pass; none of that may change the ground
// program's semantics.
func TestDifferentialJoinPlanner(t *testing.T) {
	for pi, p := range plannerPrograms(t) {
		on := leastModelStrings(t, p, ground.DefaultOptions())
		offOpts := ground.DefaultOptions()
		offOpts.NoJoinPlanner = true
		off := leastModelStrings(t, p, offOpts)
		for ci := range on {
			if on[ci] != off[ci] {
				t.Fatalf("program %d comp %d: planner on %s != planner off %s\nprogram:\n%s",
					pi, ci, on[ci], off[ci], p)
			}
		}
	}
}

// TestJoinPlannerOrderInsensitivity: shuffling the body-literal order of
// every rule leaves the least model of every component unchanged. Because
// the planner orders joins by boundness and relation size rather than
// source position, this holds with the planner on; it must also hold with
// the planner off, since body order never carries meaning in the language.
func TestJoinPlannerOrderInsensitivity(t *testing.T) {
	offOpts := ground.DefaultOptions()
	offOpts.NoJoinPlanner = true
	for pi, p := range plannerPrograms(t) {
		want := leastModelStrings(t, p, ground.DefaultOptions())
		for shuffle := int64(0); shuffle < 3; shuffle++ {
			rng := rand.New(rand.NewSource(int64(pi)*10 + shuffle))
			for _, c := range p.Components {
				for _, r := range c.Rules {
					rng.Shuffle(len(r.Body), func(i, j int) {
						r.Body[i], r.Body[j] = r.Body[j], r.Body[i]
					})
				}
			}
			if got := leastModelStrings(t, p, ground.DefaultOptions()); !equalStrings(got, want) {
				t.Fatalf("program %d shuffle %d: planner-on models changed under body reorder\ngot  %v\nwant %v\nprogram:\n%s",
					pi, shuffle, got, want, p)
			}
			if got := leastModelStrings(t, p, offOpts); !equalStrings(got, want) {
				t.Fatalf("program %d shuffle %d: planner-off models changed under body reorder\ngot  %v\nwant %v\nprogram:\n%s",
					pi, shuffle, got, want, p)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
