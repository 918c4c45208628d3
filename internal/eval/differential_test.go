// Differential tests pinning the semi-naive least-model engine to its
// naive reference oracle (LeastModelNaiveCtx iterates Definition 4's V
// transformation literally) on a large population of seeded workloads, in
// the spirit of the cross-checked evaluators of the plp compiler
// (Delgrande & Schaub). Every fast path must agree with the oracle
// exactly, and the reported fixpoint statistics must be consistent with
// the model produced.
package eval_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/oracle/gen"
	"repro/internal/oracle/naive"
)

// differentialPrograms yields ≥200 seeded programs mixing every random
// workload family plus deterministic inheritance hierarchies.
func differentialPrograms(t *testing.T) []*ast.OrderedProgram {
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
		t.Fatalf("differential population too small: %d < 200", len(progs))
	}
	return progs
}

// TestDifferentialLeastModel: on every seeded program and every component,
// the semi-naive engine agrees with the naive oracle as a literal set, and
// FixpointStats.Derived equals the least model's size.
func TestDifferentialLeastModel(t *testing.T) {
	for pi, p := range differentialPrograms(t) {
		g, err := ground.GroundCtx(context.Background(), p, ground.DefaultOptions())
		if err != nil {
			t.Fatalf("program %d: ground: %v", pi, err)
		}
		for ci := range p.Components {
			v := eval.NewView(g, ci)
			ref, err := naive.LeastModelNaiveCtx(context.Background(), v)
			if err != nil {
				t.Fatalf("program %d comp %d: naive: %v", pi, ci, err)
			}
			semi, stats, err := leastModelStats(t, v)
			if err != nil {
				t.Fatalf("program %d comp %d: semi-naive: %v", pi, ci, err)
			}
			if !semi.Equal(ref) {
				t.Fatalf("program %d comp %d: semi-naive %s != naive %s\nprogram:\n%s",
					pi, ci, semi, ref, p)
			}
			if stats.Derived != semi.Len() {
				t.Fatalf("program %d comp %d: stats.Derived=%d but model size=%d",
					pi, ci, stats.Derived, semi.Len())
			}
			if stats.Fired < stats.Derived {
				t.Fatalf("program %d comp %d: Fired=%d < Derived=%d",
					pi, ci, stats.Fired, stats.Derived)
			}
		}
	}
}

// TestDifferentialLeastModelFullGrounding repeats the oracle comparison
// under exhaustive grounding, so the agreement is not an artifact of the
// relevance-based grounder.
func TestDifferentialLeastModelFullGrounding(t *testing.T) {
	opts := ground.DefaultOptions()
	opts.Mode = ground.ModeFull
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed + 5_000))
		p := gen.RandomOrdered(rng, 1+rng.Intn(3), gen.RandomConfig{
			Atoms: 3 + rng.Intn(4), Rules: 6 + rng.Intn(8), MaxBody: 2,
			NegHeads: true, NegBody: true,
		})
		g, err := ground.GroundCtx(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("seed %d: ground: %v", seed, err)
		}
		for ci := range p.Components {
			v := eval.NewView(g, ci)
			ref, err := naive.LeastModelNaiveCtx(context.Background(), v)
			if err != nil {
				t.Fatalf("seed %d comp %d: naive: %v", seed, ci, err)
			}
			semi, stats, err := leastModelStats(t, v)
			if err != nil {
				t.Fatalf("seed %d comp %d: semi-naive: %v", seed, ci, err)
			}
			if !semi.Equal(ref) {
				t.Fatalf("seed %d comp %d: semi-naive %s != naive %s", seed, ci, semi, ref)
			}
			if stats.Derived != semi.Len() {
				t.Fatalf("seed %d comp %d: Derived=%d, model size=%d",
					seed, ci, stats.Derived, semi.Len())
			}
		}
	}
}

// fixpointStats holds the work counters one semi-naive run flushes.
type fixpointStats struct{ Fired, Derived, BlockEvents int }

// leastModelStats computes lfp(V) with LeastModelCtx and reads the work it
// flushed to the eval.fired, eval.derived and eval.block_events counters.
// It skips the test when the metrics registry is disabled.
func leastModelStats(t *testing.T, v *eval.View) (*interp.Interp, fixpointStats, error) {
	t.Helper()
	if !obs.On() {
		t.Skip("metrics registry disabled")
	}
	before := obs.Default().Snap()
	m, err := v.LeastModelCtx(context.Background())
	d := obs.Default().Snap().Diff(before)
	return m, fixpointStats{int(d["eval.fired"]), int(d["eval.derived"]), int(d["eval.block_events"])}, err
}
