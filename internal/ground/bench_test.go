// Cost pins of the grounder on the shapes the serving benchmark grounds:
// the policy tenant in full, the reads tenant in full and as a path and a
// degraded-SIP reach slice, and one fresh-constant assert into the policy
// tenant. The programs mirror benchmark/stream.go's policySource and
// readsSource (that package is a main package and cannot be imported).
package ground

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ast"
)

// policyProgram is the write tenant: kb facts p(cI), a policy deriving
// ok/1 from each, and the exception component the writes land in.
func policyProgram(tb testing.TB, kb int) *ast.OrderedProgram {
	tb.Helper()
	var sb strings.Builder
	sb.WriteString("module kb {\n")
	for i := 0; i < kb; i++ {
		fmt.Fprintf(&sb, "p(c%d).\n", i)
	}
	sb.WriteString("}\nmodule policy extends kb { ok(X) :- p(X). }\nmodule exc extends policy {\n-ok(X) :- bad(X).\n}\n")
	return parse(tb, sb.String())
}

// readsProgram is the read tenant: a left-recursive path/2 over an n-edge
// chain, a right-recursive reach/2 over an m-hop chain, one exception each
// in the more specific component, and an unrelated module.
func readsProgram(tb testing.TB, n, m int) *ast.OrderedProgram {
	tb.Helper()
	var sb strings.Builder
	sb.WriteString("module base {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  edge(c%d, c%d).\n", i, i+1)
	}
	for i := 0; i < m; i++ {
		fmt.Fprintf(&sb, "  hop(h%d, h%d).\n", i, i+1)
	}
	sb.WriteString("  path(X, Y) :- edge(X, Y).\n  path(X, Z) :- path(X, Y), edge(Y, Z).\n")
	sb.WriteString("  reach(X, Y) :- hop(X, Y).\n  reach(X, Z) :- hop(X, Y), reach(Y, Z).\n}\n")
	fmt.Fprintf(&sb, "module exc extends base {\n  -path(X, c%d) :- edge(X, c%d).\n  -reach(X, h%d) :- hop(X, h%d).\n}\n",
		n/2, n/2, m/2, m/2)
	sb.WriteString("module items {\n")
	for j := 0; j < n/4; j++ {
		fmt.Fprintf(&sb, "  item(d%d).\n", j)
	}
	sb.WriteString("  ok(X) :- item(X).\n}\n")
	return parse(tb, sb.String())
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
