package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/parser"
)

// renderRules renders instances as "comp: head :- body." lines, so
// programs over different atom tables compare as sets.
func renderRules(gp *ground.Program, rules []ground.Rule, keep func(i int) bool) map[string]bool {
	out := make(map[string]bool, len(rules))
	for i := range rules {
		if keep == nil || keep(i) {
			out[gp.Src.Components[rules[i].Comp].Name+": "+gp.RuleString(&rules[i])] = true
		}
	}
	return out
}

// readsSource is the serving benchmark's read tenant at size (n, m).
func readsSource(n, m int) string {
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
	return sb.String()
}

// policySource is the serving benchmark's write tenant: kb facts p(cI), a
// policy deriving ok/1 from each, and the exception component writes land
// in.
func policySource(kb int) string {
	var sb strings.Builder
	sb.WriteString("module kb {\n")
	for i := 0; i < kb; i++ {
		fmt.Fprintf(&sb, "p(c%d).\n", i)
	}
	sb.WriteString("}\nmodule policy extends kb { ok(X) :- p(X). }\nmodule exc extends policy {\n-ok(X) :- bad(X).\n}\n")
	return sb.String()
}

func mustProgram(tb testing.TB, src string) *ast.OrderedProgram {
	tb.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// closureOracle is the cut's definition computed the slow way: repeat
// "every live instance whose head atom is reached brings in its body
// atoms" over the whole pinned prefix until nothing changes, seeded with
// every table atom the goal's literals match.
func closureOracle(s *Snapshot, goal []ast.Literal) map[string]bool {
	tab := s.gp.Tab
	reached := make(map[interp.AtomID]bool)
	for id := 0; id < tab.Len(); id++ {
		a := tab.Atom(interp.AtomID(id))
		for _, l := range goal {
			if atomMatches(l.Atom, a) {
				reached[interp.AtomID(id)] = true
			}
		}
	}
	live := func(i int) bool { _, gone := s.dead[int32(i)]; return !gone }
	for changed := true; changed; {
		changed = false
		for i := range s.rules {
			if !live(i) || !reached[s.rules[i].Head.Atom()] {
				continue
			}
			for _, l := range s.rules[i].Body {
				if !reached[l.Atom()] {
					reached[l.Atom()], changed = true, true
				}
			}
		}
	}
	return renderRules(s.gp, s.rules, func(i int) bool { return live(i) && reached[s.rules[i].Head.Atom()] })
}

// atomMatches reports whether the ground atom a agrees with the pattern p
// on predicate, arity and every ground argument of p, comparing terms
// rather than the stored keys the cut compares.
func atomMatches(p, a ast.Atom) bool {
	if a.Pred != p.Pred || len(a.Args) != len(p.Args) {
		return false
	}
	for j, t := range p.Args {
		if t.Ground() && !t.Equal(a.Args[j]) {
			return false
		}
	}
	return true
}

func sameSet(a, b map[string]bool) (string, bool) {
	var diff []string
	for k := range a {
		if !b[k] {
			diff = append(diff, "+ "+k)
		}
	}
	for k := range b {
		if !a[k] {
			diff = append(diff, "- "+k)
		}
	}
	sort.Strings(diff)
	return strings.Join(diff, "\n"), len(diff) == 0
}

// The occurrence index belongs to the ground program, not to the version:
// however many incremental writes follow, each followed by a read of the
// version it published, the program is indexed once and then only
// extended. Two cases: 50 toggles, each followed by a cold goal; and 200
// asserts over fresh constants, which grow Rules elevenfold, each followed
// by a cold goal on a goal-directed engine or by a cone-derived model on a
// full-model one. A compaction regrounds and indexes the new program once.
func TestSliceIndexBuildsOncePerProgram(t *testing.T) {
	t.Run("toggles", indexToggles)
	for _, gd := range []bool{true, false} {
		t.Run(fmt.Sprintf("growth/goalDirected=%v", gd), func(t *testing.T) { indexGrowth(t, gd) })
	}
}

// wantIndexBuilds fails t unless core.slice.index_builds rose by want
// since before.
func wantIndexBuilds(t *testing.T, before obs.Snap, want int64, after string) {
	t.Helper()
	if n := obs.Default().Snap().Diff(before)["core.slice.index_builds"]; n != want {
		t.Errorf("core.slice.index_builds = %d after %s, want %d", n, after, want)
	}
}

func indexToggles(t *testing.T) {
	ctx := context.Background()
	e, err := NewEngineCtx(ctx, mustProgram(t, policySource(200)), Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Snap()
	live := make(map[int]bool)
	for i := 0; i < 50; i++ {
		k := (i * 7) % 20
		f := []ast.Literal{lit(t, fmt.Sprintf("bad(c%d)", k))}
		write := e.Update
		if live[k] {
			write = e.Retract
		}
		live[k] = !live[k]
		s, err := write(ctx, "exc", f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.QueryCtx(ctx, "exc", parseGoal(t, fmt.Sprintf("-ok(c%d)", k)))
		if err != nil {
			t.Fatal(err)
		}
		if (len(got) == 1) != live[k] {
			t.Fatalf("update %d: -ok(c%d) has %d answers, bad(c%d) live = %v", i, k, len(got), k, live[k])
		}
	}
	d := obs.Default().Snap().Diff(before)
	if n := d["core.updates.reground"]; n != 0 {
		t.Fatalf("%d updates regrounded; the case needs incremental ones", n)
	}
	wantIndexBuilds(t, before, 1, "50 incremental updates")
	s, err := e.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryCtx(ctx, "exc", parseGoal(t, "-ok(c1)")); err != nil {
		t.Fatal(err)
	}
	wantIndexBuilds(t, before, 2, "a compaction")
}

func indexGrowth(t *testing.T, goalDirected bool) {
	ctx := context.Background()
	e, err := NewEngineCtx(ctx, mustProgram(t, policySource(20)), Config{GoalDirected: goalDirected})
	if err != nil {
		t.Fatal(err)
	}
	read := func(s *Snapshot, goal string) {
		t.Helper()
		got, err := s.QueryCtx(ctx, "policy", parseGoal(t, goal))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("v%d %s: %d answers, want 1", s.version, goal, len(got))
		}
	}
	before := obs.Default().Snap()
	start := len(e.Current().rules)
	read(e.Current(), "ok(c0)") // the full-model engine's cones start from this model
	for i := 0; i < 200; i++ {
		s, err := e.Update(ctx, "kb", []ast.Literal{lit(t, fmt.Sprintf("p(d%d)", i))})
		if err != nil {
			t.Fatal(err)
		}
		read(s, fmt.Sprintf("ok(d%d)", i))
	}
	d := obs.Default().Snap().Diff(before)
	if n := d["core.updates.reground"]; n != 0 {
		t.Fatalf("%d updates regrounded; the case needs incremental ones", n)
	}
	if !goalDirected && d["core.least.cone"] == 0 {
		t.Fatal("no read derived its model from a cone: the cone's walk of the index went untested")
	}
	grown := len(e.Current().rules)
	t.Logf("Rules grew from %d to %d instances", start, grown)
	if grown < 8*start {
		t.Fatalf("Rules grew from %d to %d instances; the case needs them to outgrow the first index many times over", start, grown)
	}
	wantIndexBuilds(t, before, 1, "200 fresh-constant asserts")
	s, err := e.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	read(s, "ok(d7)")
	if s, err = e.Update(ctx, "kb", []ast.Literal{lit(t, "p(e0)")}); err != nil {
		t.Fatal(err)
	}
	read(s, "ok(e0)")
	wantIndexBuilds(t, before, 2, "a compaction and one more write")
}

// TestColdGoalAllocs pins the allocations of a cold goal on the read
// tenant — its cut, the slice's view and fixpoint, and the buckets its
// answers are read from — with every run asking a goal no slice cache
// holds. The runs take the cut path directly: through the engine, the
// reach window's misses would cross the route's line and read the
// component's model instead (TestRoutedGoalAllocs pins those). Answers
// stay interned, so the count does not grow with the number of answers. The bounds are 1.25 times the counts measured when
// the view's indexes and the buckets' sort became flat arrays (before:
// 1 169 and 3 955 allocations).
func TestColdGoalAllocs(t *testing.T) {
	eng, err := NewEngineCtx(context.Background(), mustProgram(t, readsSource(400, 100)), Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		name, goal string
		anchors    int
		max        float64
	}{
		{"point", "path(c%[1]d, c3%[1]d)", 60, 90}, // measured 72
		{"reach", "reach(h%d, X)", 96, 147},        // measured 117
	} {
		qs := make([]ast.Query, c.anchors) // more goals than a slice cache keeps
		for i := range qs {
			qs[i] = parseGoal(t, fmt.Sprintf(c.goal, i))
		}
		next := 0
		allocs := testing.AllocsPerRun(2*c.anchors, func() {
			next++
			if _, err := eng.Current().cutAnswers(ctx, "exc", qs[next%len(qs)]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("%s: %.0f allocs per cold goal, want <= %.0f", c.name, allocs, c.max)
		}
	}
}

// BenchmarkGoalDirectedCold answers goals no slice cache holds on the read
// tenant: the anchors cycle through more distinct goals than the cache
// keeps, and every query takes the cut path directly, so it cuts (and
// evaluates) its slice however far the snapshot's tally has crossed the
// route's line (BenchmarkGoalDirectedSweep measures the route).
func BenchmarkGoalDirectedCold(b *testing.B) {
	for _, c := range []struct {
		name, goal string
		anchors    int
	}{
		{"scan", "path(c%d, X)", 390},
		{"point", "path(c%[1]d, c3%[1]d)", 60},
		{"join", "path(c%d, X), edge(X, Y)", 390},
		{"reach", "reach(h%d, X)", 96},
	} {
		b.Run(c.name, func(b *testing.B) {
			eng, err := NewEngineCtx(context.Background(), mustProgram(b, readsSource(400, 100)), Config{GoalDirected: true})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			qs := make([]ast.Query, c.anchors)
			for i := range qs {
				qs[i] = parseGoal(b, fmt.Sprintf(c.goal, i))
			}
			if _, err := eng.Current().cutAnswers(ctx, "exc", qs[0]); err != nil { // start the occurrence index
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := eng.Current().cutAnswers(ctx, "exc", qs[(i+1)%len(qs)])
				if err != nil {
					b.Fatal(err)
				}
				a.Bindings() // as QueryCtx returns them
			}
		})
	}
}

// BenchmarkGoalDirectedWriteThenCold is the goal-directed write path's
// read-after-write cost on the policy tenant, with the serving benchmark's
// compaction cadence: one toggle of bad(cK), then one goal on the version
// it published — always a slice-cache miss.
func BenchmarkGoalDirectedWriteThenCold(b *testing.B) {
	const kb, window, compactEvery = 1000, 128, 256
	eng, err := NewEngineCtx(context.Background(), mustProgram(b, policySource(kb)), Config{GoalDirected: true, CompactEvery: compactEvery})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	facts := make([][]ast.Literal, window)
	queries := make([]ast.Query, window)
	for k := range facts {
		facts[k] = parseGoal(b, fmt.Sprintf("bad(c%d)", k)).Body
		queries[k] = parseGoal(b, fmt.Sprintf("-ok(c%d)", k))
	}
	live := make([]bool, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (i * 37) % window
		write := eng.Update
		if live[k] {
			write = eng.Retract
		}
		live[k] = !live[k]
		snap, err := write(ctx, "exc", facts[k])
		if err != nil {
			b.Fatal(err)
		}
		got, err := snap.QueryCtx(ctx, "exc", queries[k])
		if err != nil {
			b.Fatal(err)
		}
		if (len(got) == 1) != live[k] {
			b.Fatalf("-ok(c%d) after toggle: %d answers, bad(c%d) live = %v", k, len(got), k, live[k])
		}
	}
}
