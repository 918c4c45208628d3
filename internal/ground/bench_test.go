// Cost pins of the grounder on the shapes the serving benchmark grounds:
// the policy tenant in full, the reads tenant in full and as a path and a
// degraded-SIP reach slice, and one fresh-constant assert into the policy
// tenant.
package ground

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/oracle/gen"
)

// policyProgram is the write tenant at kb facts (gen.PolicySource).
func policyProgram(tb testing.TB, kb int) *ast.OrderedProgram {
	tb.Helper()
	return parse(tb, gen.PolicySource(kb))
}

// readsProgram is the read tenant at chain n and hops m (gen.ReadsSource).
func readsProgram(tb testing.TB, n, m int) *ast.OrderedProgram {
	tb.Helper()
	return parse(tb, gen.ReadsSource(n, m))
}

// benchShape is one grounding the serving benchmark performs.
type benchShape struct {
	name string
	prog *ast.OrderedProgram
	goal []ast.Literal
}

// benchShapes returns the four shapes at the benchmark's full-profile
// sizes (kb 1000; chain 400, hops 100).
func benchShapes(tb testing.TB) []benchShape {
	reads := readsProgram(tb, 400, 100)
	return []benchShape{
		{"policy-full", policyProgram(tb, 1000), nil},
		{"reads-full", reads, nil},
		{"reads-path-slice", reads, goalLits(tb, "path(c100, X)")},
		{"reads-reach-slice", reads, goalLits(tb, "reach(h10, X)")},
	}
}

var benchSink *Program

func BenchmarkGround(b *testing.B) {
	for _, sh := range benchShapes(b) {
		b.Run(sh.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.Goal = sh.goal
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gp, err := GroundCtx(context.Background(), sh.prog, opts)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = gp
			}
		})
	}
}

// BenchmarkAssertFreshConstant times one universe-growing assert into the
// policy tenant: bad(kN) for a constant outside kb. The grounding each
// iteration starts from is outside the timer.
func BenchmarkAssertFreshConstant(b *testing.B) {
	p := policyProgram(b, 1000)
	comp, _ := p.ComponentIndex("exc")
	fact := goalLits(b, "bad(k0)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gp, err := GroundCtx(context.Background(), p, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := gp.AssertFacts(context.Background(), comp, fact); err != nil {
			b.Fatal(err)
		}
		benchSink = gp
	}
}

// BenchmarkRetractFact times one retract and re-assert of p(c7) in the
// policy tenant's kb, a predicate of 1 000 facts and then 20 000. c7 also
// holds in bad(c7), asserted before the timer starts, so neither write
// takes the constant's last occurrence and both stay in place.
func BenchmarkRetractFact(b *testing.B) {
	for _, kb := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("facts=%d", kb), func(b *testing.B) {
			p := policyProgram(b, kb)
			ctx := context.Background()
			gp, err := GroundCtx(ctx, p, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			kbComp, _ := p.ComponentIndex("kb")
			exc, _ := p.ComponentIndex("exc")
			if _, err := gp.AssertFacts(ctx, exc, goalLits(b, "bad(c7)")); err != nil {
				b.Fatal(err)
			}
			fact := goalLits(b, "p(c7)")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gp.RetractFacts(kbComp, fact); err != nil {
					b.Fatal(err)
				}
				if _, err := gp.AssertFacts(ctx, kbComp, fact); err != nil {
					b.Fatal(err)
				}
			}
			benchSink = gp
		})
	}
}

// BenchmarkResidentGC times a forced collection, in ms per GC, with the
// reads tenant's full grounding (reads-full) live, beside a control with
// nothing live: what a resident program adds to every collection cycle.
func BenchmarkResidentGC(b *testing.B) {
	for _, live := range []bool{false, true} {
		name := "control"
		if live {
			name = "reads-full"
		}
		b.Run(name, func(b *testing.B) {
			if live {
				gp, err := GroundCtx(context.Background(), readsProgram(b, 400, 100), DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				benchSink = gp
			}
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runtime.GC()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/gc")
			benchSink = nil
		})
	}
}
