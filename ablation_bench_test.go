// B7 ablation benchmarks: the two design choices DESIGN.md calls out,
// each toggled off to measure its contribution. Both switches are verified
// to be pure optimisations by property tests (internal/ground,
// internal/stable); these benchmarks measure the speedup they buy.
package ordlog_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/classical"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/stable"
	"repro/internal/transform"
	"repro/internal/workload"
)

// --- B7a: EDB/CWA competitor simplification on OV(ancestor) ---

func benchGroundAncestor(b *testing.B, n int, noSimplify bool) {
	b.Helper()
	ov, err := transform.OV("c", workload.AncestorChain(n))
	if err != nil {
		b.Fatal(err)
	}
	opts := ground.DefaultOptions()
	opts.NoEDBSimplify = noSimplify
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ground.Ground(ov, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkB7aEDBSimplifyOn(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("anc_n=%d", n), func(b *testing.B) { benchGroundAncestor(b, n, false) })
	}
}

func BenchmarkB7aEDBSimplifyOff(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("anc_n=%d", n), func(b *testing.B) { benchGroundAncestor(b, n, true) })
	}
}

// --- B7b: doomed-branch prune in stable enumeration ---

func benchStableWinMove(b *testing.B, n int, noPrune bool) {
	b.Helper()
	ov, err := transform.OV("c", workload.WinMove(workload.CycleEdges(n)))
	if err != nil {
		b.Fatal(err)
	}
	g, err := ground.Ground(ov, ground.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	v, err := eval.NewViewByName(g, "c")
	if err != nil {
		b.Fatal(err)
	}
	opts := stable.Options{NoPrune: noPrune}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stable.StableModelsCtx(context.Background(), v, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkB7bPruneOn(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		b.Run(fmt.Sprintf("cycle_n=%d", n), func(b *testing.B) { benchStableWinMove(b, n, false) })
	}
}

func BenchmarkB7bPruneOff(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		b.Run(fmt.Sprintf("cycle_n=%d", n), func(b *testing.B) { benchStableWinMove(b, n, true) })
	}
}

// --- B7c: classical stable search with vs without WFS pre-propagation ---
// (the classical GL enumerator fixes the well-founded literals before
// branching; this measures what that buys on the even cycle).

func BenchmarkB7cClassicalGLWithWFS(b *testing.B) {
	for _, n := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("cycle_n=%d", n), func(b *testing.B) {
			p, err := classical.GroundRules(workload.WinMove(workload.CycleEdges(n)), classical.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.StableModelsTotal(classical.StableOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
