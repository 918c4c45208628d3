// B8: goal-directed proof vs full materialisation, a test-only comparison.
// The [LV] top-down prover (this package's test oracle) answers a single
// query without computing the whole least model; this benchmark measures
// when that would pay off on OV(ancestor).
package proof_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/oracle/naive"
	"repro/internal/parser"
	"repro/internal/proof"
	"repro/internal/transform"
	"repro/internal/workload"
)

func ancestorView(tb testing.TB, n int) *eval.View {
	tb.Helper()
	ov, err := transform.OV("c", workload.AncestorChain(n))
	if err != nil {
		tb.Fatal(err)
	}
	g, err := ground.GroundCtx(context.Background(), ov, ground.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	v, err := naive.NewViewByName(g, "c")
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

func ancLit(tb testing.TB, v *eval.View, from, to int) interp.Lit {
	tb.Helper()
	l, err := parser.ParseLiteral(fmt.Sprintf("anc(c%d, c%d)", from, to))
	if err != nil {
		tb.Fatal(err)
	}
	id, ok := v.G.Tab.Lookup(l.Atom)
	if !ok {
		tb.Fatalf("atom %s not interned", l.Atom)
	}
	return interp.MkLit(id, l.Neg)
}

func BenchmarkB8ProveSingleQuery(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("anc_n=%d", n), func(b *testing.B) {
			v := ancestorView(b, n)
			goal := ancLit(b, v, 0, n/2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr := proof.New(v, 0) // fresh memo: a cold single query
				ok, err := pr.ProveCtx(context.Background(), goal)
				if err != nil || !ok {
					b.Fatalf("prove: %v %v", ok, err)
				}
			}
		})
	}
}

// BenchmarkB8ProveWarm re-proves a memoised goal on a reused prover. The
// DFS in-progress set is pooled on the Prover, so the warm path performs
// no allocations at all; TestProveWarmZeroAllocs pins that.
func BenchmarkB8ProveWarm(b *testing.B) {
	v := ancestorView(b, 32)
	goal := ancLit(b, v, 0, 16)
	pr := proof.New(v, 0)
	if ok, err := pr.ProveCtx(context.Background(), goal); err != nil || !ok {
		b.Fatalf("warm-up prove: %v %v", ok, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := pr.ProveCtx(context.Background(), goal); err != nil || !ok {
			b.Fatalf("prove: %v %v", ok, err)
		}
	}
}

// A warm re-proof must be allocation-free: results are memoised and the
// in-progress set is a pooled field, not a per-call map. This guard
// pinned a real regression — ProveCtx used to allocate a fresh map on
// every call, memo hit or not.
func TestProveWarmZeroAllocs(t *testing.T) {
	v := ancestorView(t, 32)
	goal := ancLit(t, v, 0, 16)
	pr := proof.New(v, 0)
	if ok, err := pr.ProveCtx(context.Background(), goal); err != nil || !ok {
		t.Fatalf("warm-up prove: %v %v", ok, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ok, err := pr.ProveCtx(context.Background(), goal)
		if err != nil || !ok {
			t.Fatalf("prove: %v %v", ok, err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm Prove allocated %.1f times per op, want 0", allocs)
	}
}

func BenchmarkB8MaterialiseThenQuery(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("anc_n=%d", n), func(b *testing.B) {
			v := ancestorView(b, n)
			goal := ancLit(b, v, 0, n/2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := v.LeastModelCtx(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if !m.HasLit(goal) {
					b.Fatal("goal not in least model")
				}
			}
		})
	}
}
