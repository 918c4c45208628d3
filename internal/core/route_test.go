package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/interrupt"
	"repro/internal/obs"
	"repro/internal/oracle/gen"
)

// routeWrite is one fact a route differential may assert or retract.
type routeWrite struct {
	comp string
	fact ast.Literal
}

// routeCase is one program of the route differential: the components its
// goals are asked in, a pool of goals larger than a slice cache, and the
// facts its writes draw from, fresh constants among them.
type routeCase struct {
	prog   *ast.OrderedProgram
	comps  []string
	goals  []ast.Query
	writes []routeWrite
}

func readsRouteCase(t *testing.T) routeCase {
	c := routeCase{prog: mustProgram(t, readsSource(40, 20)), comps: []string{"exc", "base"}}
	for a := 0; a < 40; a += 2 {
		for _, g := range []string{"path(c%[1]d, X)", "path(c%[1]d, c%[2]d)", "path(c%[1]d, X), edge(X, Y)", "reach(h%[3]d, X)"} {
			c.goals = append(c.goals, parseGoal(t, fmt.Sprintf(g, a, a+1+a%7, a/2)))
		}
	}
	c.goals = append(c.goals, parseGoal(t, "-path(X, c20)"), parseGoal(t, "path(X, c9)"), parseGoal(t, "-reach(X, h10)"))
	for i := 0; i < 12; i++ {
		// c41 and h21 are fresh: asserting over them grows the universe,
		// retracting the last fact over them regrounds.
		c.writes = append(c.writes,
			routeWrite{"base", lit(t, fmt.Sprintf("edge(c%d, c%d)", 3*i, 41-i%3))},
			routeWrite{"base", lit(t, fmt.Sprintf("hop(h%d, h%d)", i, 21-i%2))},
			routeWrite{"exc", lit(t, fmt.Sprintf("edge(c%d, c20)", 2*i))})
	}
	return c
}

func policyRouteCase(t *testing.T) routeCase {
	const kb = 30
	c := routeCase{prog: mustProgram(t, policySource(kb)), comps: []string{"exc", "policy"}}
	for k := 0; k < kb+2; k++ {
		for _, g := range []string{"ok(c%d)", "-ok(c%d)"} {
			c.goals = append(c.goals, parseGoal(t, fmt.Sprintf(g, k)))
		}
		c.writes = append(c.writes, routeWrite{"exc", lit(t, fmt.Sprintf("bad(c%d)", k))})
	}
	c.goals = append(c.goals, parseGoal(t, "ok(X)"), parseGoal(t, "-ok(X)"), parseGoal(t, "bad(X)"), parseGoal(t, "p(X)"))
	for k := kb; k < kb+2; k++ { // fresh constants
		c.writes = append(c.writes, routeWrite{"kb", lit(t, fmt.Sprintf("p(c%d)", k))})
	}
	return c
}

// corpusRouteCase covers every instance of a generated program with its
// unbound goals, so a sweep of the pool always reaches the line.
func corpusRouteCase(t *testing.T, seed int64) routeCase {
	const comps, nconst = 3, 3
	c := routeCase{prog: gen.RandomOrderedDatalog(rand.New(rand.NewSource(seed)), comps, nconst)}
	for _, comp := range c.prog.Components {
		c.comps = append(c.comps, comp.Name)
	}
	add := func(format string, args ...any) {
		c.goals = append(c.goals, parseGoal(t, fmt.Sprintf(format, args...)))
	}
	add("e(X, Y)")
	for k := 0; k < 4; k++ {
		add("p%d(X)", k)
		add("-p%d(X)", k)
		add("p%d(X), e(X, Y)", k)
		for i := 0; i < nconst+2; i++ {
			add("p%d(c%d)", k, i)
			add("-p%d(c%d)", k, i)
		}
	}
	for i := 0; i < nconst+2; i++ {
		add("e(c%d, X)", i)
		add("e(X, c%d)", i)
		for _, comp := range c.comps {
			c.writes = append(c.writes,
				routeWrite{comp, lit(t, fmt.Sprintf("e(c%d, c%d)", i, (i+1)%(nconst+2)))},
				routeWrite{comp, lit(t, fmt.Sprintf("p%d(c%d)", i%4, i))},
				routeWrite{comp, lit(t, fmt.Sprintf("-p%d(c%d)", (i+1)%4, i))}) // a negative fact regrounds
		}
	}
	return c
}

// A goal-directed engine answers every goal exactly as a full-model engine
// does and exactly as the goal's cut does, on every version, whether its
// misses cut or route to the component's model. Each seeded run sweeps
// the goal pool over the first version, then alternates writes —
// asserts, retracts, fresh constants, reground fallbacks — with a sweep of
// the new version and reads of versions pinned earlier, from four
// concurrent readers. A sweep cuts past the line, so every version it
// reads switches to the model, and after each write the child cuts again
// until it crosses and derives its model from the write's carry. The
// oracles are a non-goal-directed engine taking the same writes and the
// cut path called directly on that engine's snapshots.
func TestGoalRouteDifferential(t *testing.T) {
	seeds := []int64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 190}
	if testing.Short() {
		seeds = seeds[:5]
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("reads/seed%d", seed), func(t *testing.T) { routeDifferential(t, readsRouteCase(t), seed) })
		t.Run(fmt.Sprintf("policy/seed%d", seed), func(t *testing.T) { routeDifferential(t, policyRouteCase(t), seed) })
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("corpus/seed%03d", seed), func(t *testing.T) { routeDifferential(t, corpusRouteCase(t, seed), seed) })
	}
}

// routeRead is one read of a differential phase: a goal in a component on
// the version at position at of the published pairs.
type routeRead struct {
	at   int
	comp string
	q    ast.Query
}

func routeDifferential(t *testing.T, c routeCase, seed int64) {
	const readers, phases, pinnedReads = 4, 6, 12
	ctx := context.Background()
	gd, err := NewEngineCtx(ctx, c.prog, Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewEngineCtx(ctx, c.prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ gd, full *Snapshot }
	pairs := []pair{{gd.Current(), full.Current()}}
	var history []string

	answer := func(s *Snapshot, r routeRead, cut bool) (string, error) {
		var a *Answers
		var err error
		if cut {
			a, err = s.cutAnswers(ctx, r.comp, r.q)
		} else {
			a, err = s.AnswersCtx(ctx, r.comp, r.q)
		}
		return string(a.AppendJSON(nil)), err
	}
	check := func(r routeRead) error {
		p := pairs[r.at]
		got, err := answer(p.gd, r, false)
		if err != nil {
			return err
		}
		want, err := answer(p.full, r, false)
		if err != nil {
			return err
		}
		cut, err := answer(p.full, r, true)
		if err != nil {
			return err
		}
		if got != want || cut != want {
			return fmt.Errorf("after %v, v%d %s in %s: goal-directed %s, full model %s, cut %s",
				history, p.gd.Version(), r.q, r.comp, got, want, cut)
		}
		return nil
	}
	// run splits the reads over the concurrent readers.
	run := func(reads []routeRead) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, readers)
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(reads); i += readers {
					if err := check(reads[i]); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	sweep := func() []routeRead {
		comp := c.comps[rng.Intn(len(c.comps))]
		reads := make([]routeRead, 0, len(c.goals)+pinnedReads)
		for _, g := range rng.Perm(len(c.goals)) {
			reads = append(reads, routeRead{len(pairs) - 1, comp, c.goals[g]})
		}
		for i := 0; i < pinnedReads; i++ {
			reads = append(reads, routeRead{rng.Intn(len(pairs)), c.comps[rng.Intn(len(c.comps))], c.goals[rng.Intn(len(c.goals))]})
		}
		return reads
	}

	before := obs.Default().Snap()
	run(sweep())
	for phase := 0; phase < phases; phase++ {
		w := c.writes[rng.Intn(len(c.writes))]
		write, verb := (*Engine).Update, "assert"
		if rng.Intn(3) == 0 {
			write, verb = (*Engine).Retract, "retract"
		}
		history = append(history, verb+" "+w.comp+" "+w.fact.String())
		sf, err := write(full, ctx, w.comp, []ast.Literal{w.fact})
		if err != nil {
			t.Fatal(err)
		}
		sg, err := write(gd, ctx, w.comp, []ast.Literal{w.fact})
		if err != nil {
			t.Fatal(err)
		}
		if sg.Version() != sf.Version() {
			t.Fatalf("after %v: versions diverged, v%d and v%d", history, sg.Version(), sf.Version())
		}
		if sg.Version() != pairs[len(pairs)-1].gd.Version() {
			pairs = append(pairs, pair{sg, sf})
		}
		run(sweep())
	}
	if n := obs.Default().Snap().Diff(before)["core.route.switches"]; n < 1 {
		t.Errorf("no version crossed the line (core.route.switches = %d): the route went untested", n)
	}
}

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
