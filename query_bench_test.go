// Warm reads: answering a query from a memoised least model. The model's
// literal index is built once per model (internal/core/query.go), so a
// warm query costs its lookups plus its rows; these benchmarks pin that
// cost per goal template of the serving benchmark's read tenant, and
// TestQueryWarmPointAllocs pins the allocations of a ground point query.
package ordlog_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
)

// readsModel builds the read tenant at chain length n (path/2 over an
// n-edge chain, reach/2 over an n/4-hop chain, one exception each) and
// returns the least model of its most specific component.
func readsModel(tb testing.TB, n int) *core.Model {
	tb.Helper()
	m := n / 4
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
	prog, err := parser.ParseProgram(sb.String())
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := core.NewEngineCtx(context.Background(), prog, core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	model, err := eng.LeastModelCtx(context.Background(), "exc")
	if err != nil {
		tb.Fatal(err)
	}
	return model
}

func benchGoal(tb testing.TB, src string) ast.Query {
	tb.Helper()
	res, err := parser.Parse("?- " + src + ".")
	if err != nil {
		tb.Fatal(err)
	}
	return res.Queries[0]
}

var benchRows int

func BenchmarkModelQueryWarm(b *testing.B) {
	m := readsModel(b, 80)
	goals := []struct{ name, goal string }{
		{"point", "path(c3, c7)"},
		{"scan", "path(c3, X)"},
		{"join", "path(c3, X), edge(X, Y)"},
		{"reach", "reach(h2, X)"},
	}
	for _, g := range goals {
		q := benchGoal(b, g.goal)
		if len(m.Query(q)) == 0 { // also the warm-up: builds the buckets
			b.Fatalf("%s has no answers", g.goal)
		}
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRows = len(m.Query(q))
			}
		})
	}
}

// A warm ground point query is a membership probe: its allocations are the
// evaluator's fixed scratch and the one (empty) binding, a small constant
// that must not grow with the model.
func TestQueryWarmPointAllocs(t *testing.T) {
	const maxAllocs = 8
	var counts []float64
	sizes := map[int]int{36: 400, 117: 4000} // chain length -> literals in the model
	for _, n := range []int{36, 117} {
		m := readsModel(t, n)
		if got, want := m.Len(), sizes[n]; got < want*9/10 || got > want*11/10 {
			t.Fatalf("n=%d: model has %d literals, want about %d", n, got, want)
		}
		q := benchGoal(t, "path(c3, c7)")
		if len(m.Query(q)) != 1 {
			t.Fatalf("n=%d: path(c3, c7) should hold", n)
		}
		counts = append(counts, testing.AllocsPerRun(200, func() { benchRows = len(m.Query(q)) }))
	}
	if counts[0] != counts[1] {
		t.Fatalf("allocs/op of a warm point query depend on model size: %.0f at ~400 atoms, %.0f at ~4000", counts[0], counts[1])
	}
	if counts[0] > maxAllocs {
		t.Fatalf("warm point query allocates %.0f times per op, want <= %d", counts[0], maxAllocs)
	}
}
