package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/interrupt"
	"repro/internal/obs"
)

// coldSweep is the serving benchmark's query-cold sweep on the read tenant
// readsSource(n, m): n goals, one in five reach-anchored, four in five
// path-anchored over the whole chain in three templates, in a seeded order
// with a reach goal in every fifth place.
func coldSweep(tb testing.TB, size, n, m int, seed int64) []ast.Query {
	nReach := min(size/5, m)
	nPath := size - nReach
	var paths, reaches []ast.Query
	for j := 0; j < nPath; j++ {
		a := j * (n - 8) / nPath
		switch j % 3 {
		case 0:
			paths = append(paths, parseGoal(tb, fmt.Sprintf("path(c%d, X)", a)))
		case 1:
			paths = append(paths, parseGoal(tb, fmt.Sprintf("path(c%d, c%d)", a, a+1+j%7)))
		case 2:
			paths = append(paths, parseGoal(tb, fmt.Sprintf("path(c%d, X), edge(X, Y)", a)))
		}
	}
	for j := 0; j < nReach; j++ {
		reaches = append(reaches, parseGoal(tb, fmt.Sprintf("reach(h%d, X)", j)))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	rng.Shuffle(len(reaches), func(i, j int) { reaches[i], reaches[j] = reaches[j], reaches[i] })
	sweep := make([]ast.Query, 0, size)
	for len(paths)+len(reaches) > 0 {
		if len(sweep)%5 == 4 && len(reaches) > 0 || len(paths) == 0 {
			sweep, reaches = append(sweep, reaches[0]), reaches[1:]
		} else {
			sweep, paths = append(sweep, paths[0]), paths[1:]
		}
	}
	return sweep
}

// hotGoals is the serving benchmark's query-hot goal set on readsSource(400,
// 100): sixteen goals, rank r in template r%4 — scan, point, join, reach.
func hotGoals(tb testing.TB) []ast.Query {
	var qs []ast.Query
	for r := 0; r < 16; r++ {
		a := r / 4
		g := [...]string{"path(c%d, X)", "path(c%d, c%d)", "path(c%d, X), edge(X, Y)", "reach(h%d, X)"}[r%4]
		if r%4 == 1 {
			qs = append(qs, parseGoal(tb, fmt.Sprintf(g, a, 9+r%191)))
		} else {
			qs = append(qs, parseGoal(tb, fmt.Sprintf(g, a)))
		}
	}
	return qs
}

// routeCounts reads the route counters moved since before.
func routeCounts(before obs.Snap) (cut, model, switches int64) {
	d := obs.Default().Snap().Diff(before)
	return d["core.route.cut"], d["core.route.model"], d["core.route.switches"]
}

// cutsToLine returns how many of the goals a version's answer misses cut
// before they reach the line: the first k whose slices sum to at least the
// component's visible live instances, counted from a view of the version,
// or len(goals) when they never do. Slice sizes come from the cut itself,
// so asking them touches neither the slice cache nor the tally.
func cutsToLine(t *testing.T, s *Snapshot, comp int, goals []ast.Query) (k int, tally int64) {
	t.Helper()
	line := int64(eval.NewViewAt(s.gp, comp, s.rules, s.dead, s.nAtoms).NumRules())
	for k < len(goals) && tally < line {
		gp, err := s.cutSlice(context.Background(), goals[k].Body)
		if err != nil {
			t.Fatal(err)
		}
		tally += int64(len(gp.Rules))
		k++
	}
	return k, tally
}

// The line, counted exactly on the serving benchmark's read tenant. The
// sixteen query-hot goals, asked a thousand times each, cut once apiece,
// tally exactly their slices and never route — not even a seventeenth cold
// goal, which would route if hits were tallied. A query-cold sweep of 240
// goals cuts until its slices reach the component's instance count, then
// switches once and answers every later miss from the model, on the next
// sweep too. After a write the child tallies from zero, crosses again and
// derives its model from the write's carry.
func TestGoalRouteBreakEven(t *testing.T) {
	ctx := context.Background()
	prog := mustProgram(t, readsSource(400, 100))
	const exc = 1 // readsSource's components: base, exc, items
	ask := func(s *Snapshot, qs []ast.Query) {
		t.Helper()
		for _, q := range qs {
			if _, err := s.AnswersCtx(ctx, "exc", q); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := func(what string, before obs.Snap, cut, model, switches int64) {
		t.Helper()
		if c, m, s := routeCounts(before); c != cut || m != model || s != switches {
			t.Errorf("%s: core.route.{cut,model,switches} = %d, %d, %d; want %d, %d, %d", what, c, m, s, cut, model, switches)
		}
	}

	t.Run("hot", func(t *testing.T) {
		eng, err := NewEngineCtx(ctx, prog, Config{GoalDirected: true})
		if err != nil {
			t.Fatal(err)
		}
		s, hot := eng.Current(), hotGoals(t)
		k, tally := cutsToLine(t, s, exc, hot)
		if k != len(hot) || tally >= int64(s.visibleLive(exc)) {
			t.Fatalf("the hot goals cut %d instances, reaching the line after %d goals: the case needs them below it", tally, k)
		}
		before := obs.Default().Snap()
		for i := 0; i < 1000; i++ {
			ask(s, hot)
		}
		want("16 hot goals x 1000", before, int64(len(hot)), 0, 0)
		if got := s.answerCuts.Load(); got != tally {
			t.Errorf("the snapshot tallied %d instances, want the hot slices' %d", got, tally)
		}
		before = obs.Default().Snap()
		ask(s, []ast.Query{parseGoal(t, "path(c200, X)")})
		want("a cold goal after the hot ones", before, 1, 0, 0)
	})

	t.Run("sweep", func(t *testing.T) {
		var trace bytes.Buffer
		eng, err := NewEngineCtx(ctx, prog, Config{GoalDirected: true}, WithTrace(&trace))
		if err != nil {
			t.Fatal(err)
		}
		s, sweep := eng.Current(), coldSweep(t, 240, 400, 100, 51)
		k, tally := cutsToLine(t, s, exc, sweep)
		if k == len(sweep) {
			t.Fatal("the sweep never reaches the line")
		}
		before := obs.Default().Snap()
		ask(s, sweep)
		want("the first sweep", before, int64(k), int64(len(sweep)-k), 1)
		if got := s.answerCuts.Load(); got != tally {
			t.Errorf("the snapshot tallied %d instances, want %d", got, tally)
		}
		line := fmt.Sprintf("route: version=0 comp=exc cut=%d instances=%d", tally, s.visibleLive(exc))
		if !strings.Contains(trace.String(), line) {
			t.Errorf("trace lacks %q:\n%s", line, trace.String())
		}
		before = obs.Default().Snap()
		ask(s, sweep)
		want("the second sweep", before, 0, int64(len(sweep)), 0)

		// One write to a component exc sees: the child's exc state carries
		// the parent's model and the write's seeds, and does not route.
		child, err := eng.Update(ctx, "base", []ast.Literal{lit(t, "hop(h100, h101)")})
		if err != nil {
			t.Fatal(err)
		}
		if got := child.answerCuts.Load(); got != 0 {
			t.Fatalf("the child starts with a tally of %d", got)
		}
		k, tally = cutsToLine(t, child, exc, sweep)
		before = obs.Default().Snap()
		ask(child, sweep[:1])
		want("the child's first miss", before, 1, 0, 0)
		ask(child, sweep[1:])
		want("the child's sweep", before, int64(k), int64(len(sweep)-k), 1)
		if got := child.answerCuts.Load(); got != tally {
			t.Errorf("the child tallied %d instances, want %d", got, tally)
		}
		if n := obs.Default().Snap().Diff(before)["core.least.cone"]; n != 1 {
			t.Errorf("the child's model came from %d cones, want 1", n)
		}
	})
}

// A routed miss whose model build is interrupted fails with the
// interruption, as a cut would; the goal's entry stays routed, and the
// next request for it builds the model and answers, as does the next
// miss.
func TestGoalRouteInterruptedModel(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngineCtx(ctx, mustProgram(t, readsSource(40, 20)), Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewEngineCtx(ctx, mustProgram(t, readsSource(40, 20)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, sweep := eng.Current(), coldSweep(t, 60, 40, 20, 7)
	k, _ := cutsToLine(t, s, 1, sweep)
	if k+1 >= len(sweep) {
		t.Fatal("the sweep never reaches the line")
	}
	same := func(q ast.Query) {
		t.Helper()
		got, err := s.AnswersCtx(ctx, "exc", q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.Current().AnswersCtx(ctx, "exc", q)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := got.AppendJSON(nil), want.AppendJSON(nil); !bytes.Equal(g, w) {
			t.Fatalf("%s: goal-directed %s, full model %s", q, g, w)
		}
	}
	for _, q := range sweep[:k] {
		same(q)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	before := obs.Default().Snap()
	if _, err := s.AnswersCtx(cancelled, "exc", sweep[k]); !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("routed miss under a cancelled context: err = %v, want an interruption", err)
	}
	if _, ok := s.comp(1).least.peek(); ok {
		t.Fatal("the interrupted miss cached a model")
	}
	same(sweep[k])   // a hit on the routed entry: builds the model
	same(sweep[k+1]) // the next miss
	if cut, model, switches := routeCounts(before); cut != 0 || model != 2 || switches != 1 {
		t.Errorf("core.route.{cut,model,switches} = %d, %d, %d; want 0, 2, 1", cut, model, switches)
	}
}

// TestRoutedGoalAllocs pins the allocations of a routed miss on the read
// tenant: a goal no slice cache holds, answered from the component's
// memoised model — the cache entry, the model lookup and the answers read
// from its buckets. The bound is 1.25 times the count measured when the
// route was added.
func TestRoutedGoalAllocs(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngineCtx(ctx, mustProgram(t, readsSource(400, 100)), Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Current()
	if _, err := s.LeastModelCtx(ctx, "exc"); err != nil {
		t.Fatal(err)
	}
	sweep := coldSweep(t, 240, 400, 100, 1)
	for _, q := range sweep { // build the buckets the sweep reads
		if _, err := s.AnswersCtx(ctx, "exc", q); err != nil {
			t.Fatal(err)
		}
	}
	before := obs.Default().Snap()
	next := 0
	allocs := testing.AllocsPerRun(2*len(sweep), func() {
		next++
		if _, err := s.AnswersCtx(ctx, "exc", sweep[next%len(sweep)]); err != nil {
			t.Fatal(err)
		}
	})
	if _, model, _ := routeCounts(before); model != int64(2*len(sweep)+1) {
		t.Fatalf("%d of %d misses routed: the window must measure routed misses only", model, 2*len(sweep)+1)
	}
	const max = 28 // measured 22
	if allocs > max {
		t.Errorf("%.0f allocs per routed miss, want <= %d", allocs, max)
	}
}

// BenchmarkGoalDirectedSweep is query-cold's shape on the read tenant: a
// sweep of 240 distinct goals, one in five reach-anchored, more than a
// slice cache holds. One sweep warms the snapshot up — its misses cut
// until they reach the line, then build the component's model — and the
// timed sweeps answer every miss from that model.
func BenchmarkGoalDirectedSweep(b *testing.B) {
	ctx := context.Background()
	eng, err := NewEngineCtx(ctx, mustProgram(b, readsSource(400, 100)), Config{GoalDirected: true})
	if err != nil {
		b.Fatal(err)
	}
	sweep := coldSweep(b, 240, 400, 100, 51)
	for _, q := range sweep {
		if _, err := eng.Current().AnswersCtx(ctx, "exc", q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Current().AnswersCtx(ctx, "exc", sweep[i%len(sweep)]); err != nil {
			b.Fatal(err)
		}
	}
}
