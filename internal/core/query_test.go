package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/stable"
)

// bruteQuery evaluates a conjunctive query by enumerating every
// substitution of its variables over the given constants — the obviously
// correct reference for Model.Query.
func bruteQuery(m *core.Model, q ast.Query, consts []ast.Term) []string {
	vars := q.Vars()
	var out []string
	assign := make(map[string]ast.Term)
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			bind := func(v ast.Var) ast.Term { return assign[v.Name] }
			for _, l := range q.Body {
				gl := ast.SubstituteLiteral(l, bind)
				if !m.Holds(gl) {
					return
				}
			}
			for _, b := range q.Builtins {
				gb := ast.Builtin{Op: b.Op, L: ast.SubstituteExpr(b.L, bind), R: ast.SubstituteExpr(b.R, bind)}
				holds, ok := ast.EvalBuiltin(gb)
				if !ok || !holds {
					return
				}
			}
			parts := make([]string, len(vars))
			for j, v := range vars {
				parts[j] = assign[v.Name].String()
			}
			out = append(out, strings.Join(parts, "|"))
			return
		}
		for _, c := range consts {
			assign[vars[i].Name] = c
			rec(i + 1)
		}
	}
	rec(0)
	sort.Strings(out)
	return out
}

// TestQueryMatchesBruteForce cross-checks the join-based Query against the
// brute-force reference on random fact bases and random queries.
func TestQueryMatchesBruteForce(t *testing.T) {
	queries := []string{
		"?- e(X, Y).",
		"?- e(X, Y), e(Y, Z).",
		"?- e(X, X).",
		"?- e(X, Y), -e(Y, X).",
		"?- e(X, Y), X != Y.",
		"?- -e(X, Y), e(Y, X).",
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		var sb strings.Builder
		var consts []ast.Term
		for i := 0; i < n; i++ {
			consts = append(consts, ast.Sym(fmt.Sprintf("c%d", i)))
		}
		// Random positive and negative edge facts, kept consistent.
		kind := make(map[string]int) // 0 unset, 1 pos, 2 neg
		for k := 0; k < n*n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			key := fmt.Sprintf("%d-%d", a, b)
			if kind[key] != 0 {
				continue
			}
			if rng.Intn(2) == 0 {
				kind[key] = 1
				fmt.Fprintf(&sb, "e(c%d, c%d).\n", a, b)
			} else {
				kind[key] = 2
				fmt.Fprintf(&sb, "-e(c%d, c%d).\n", a, b)
			}
		}
		prog, err := parser.ParseProgram(sb.String())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngineCtx(context.Background(), prog, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := eng.LeastModelCtx(context.Background(), "main")
		if err != nil {
			t.Fatal(err)
		}
		for _, qs := range queries {
			res, err := parser.Parse(qs)
			if err != nil {
				t.Fatal(err)
			}
			q := res.Queries[0]
			want := bruteQuery(m, q, consts)
			var got []string
			for _, b := range m.Query(q) {
				parts := make([]string, len(q.Vars()))
				for j, v := range q.Vars() {
					parts[j] = b[v.Name].String()
				}
				got = append(got, strings.Join(parts, "|"))
			}
			sort.Strings(got)
			if strings.Join(got, ";") != strings.Join(want, ";") {
				t.Fatalf("seed %d query %s:\n got %v\nwant %v\nfacts:\n%s", seed, qs, got, want, sb.String())
			}
		}
	}
}

// TestParallelStableFacade: the engine's stable models on a search large
// enough to fan out (win-move n = 12 at GOMAXPROCS=2) are the list the
// in-line search (GOMAXPROCS=1) returns, model for model and in order.
func TestParallelStableFacade(t *testing.T) {
	eng := winMoveEngine(t, 12)
	var inline, fanned []*core.Model
	var err error
	atProcs(1, func() { inline, err = eng.StableModelsCtx(context.Background(), "c", stableOptions()) })
	if err != nil {
		t.Fatal(err)
	}
	atProcs(2, func() { fanned, err = eng.StableModelsCtx(context.Background(), "c", stableOptions()) })
	if err != nil {
		t.Fatal(err)
	}
	if len(inline) < 2 || len(fanned) != len(inline) {
		t.Fatalf("fanned out %d models, in-line %d (want the same, at least 2)", len(fanned), len(inline))
	}
	for i := range inline {
		if fanned[i].String() != inline[i].String() {
			t.Fatalf("model %d: fanned out %s, in-line %s", i, fanned[i], inline[i])
		}
	}
}

// atProcs runs f at GOMAXPROCS=n, restoring the setting afterwards.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

func stableOptions() stable.Options { return stable.Options{} }
