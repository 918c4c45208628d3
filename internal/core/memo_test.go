package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/workload"
)

// renamed returns q with its variables renamed by the permutation of their
// names that reverses them (a single variable becomes W): the same goal to
// the slice cache, which keys by binding pattern, and a different query to
// the answer memo, whose rows name the variables.
func renamed(q ast.Query) ast.Query {
	vars := q.Vars()
	bind := func(v ast.Var) ast.Term {
		if len(vars) == 1 {
			return ast.Var{Name: "W"}
		}
		for i, w := range vars {
			if w.Name == v.Name {
				return vars[len(vars)-1-i]
			}
		}
		return v
	}
	out := ast.Query{Body: make([]ast.Literal, len(q.Body))}
	for i, l := range q.Body {
		out.Body[i] = ast.SubstituteLiteral(l, bind)
	}
	for _, b := range q.Builtins {
		out.Builtins = append(out.Builtins, b.Substitute(bind))
	}
	return out
}

// reordered returns q with its body literals in reverse order: the same
// goal to the slice cache, and answers enumerated in another order.
func reordered(q ast.Query) ast.Query {
	out := ast.Query{Body: make([]ast.Literal, len(q.Body)), Builtins: q.Builtins}
	for i, l := range q.Body {
		out.Body[len(q.Body)-1-i] = l
	}
	return out
}

// TestAnswerMemoDifferential: a goal-directed engine, whose cache entries
// keep the answer set they produced and its encoding, answers every
// request byte for byte as a non-goal-directed engine does — the rendered
// query and the encoded rows. Each seeded run asks a small hot set of
// goals over and over, in every component, under variable renamings and
// literal reorderings (one cache entry, different answers), on the tip and
// on pinned versions, between asserts and retracts that add fresh
// constants and reground; four concurrent readers share each version's
// memo, so the first encoding races later hits under -race.
func TestAnswerMemoDifferential(t *testing.T) {
	seeds := []int64{0, 25, 50, 75, 100, 125, 150, 175}
	if testing.Short() {
		seeds = seeds[:3]
	}
	before := obs.Default().Snap()
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("reads/seed%d", seed), func(t *testing.T) { memoDifferential(t, readsRouteCase(t), seed) })
		t.Run(fmt.Sprintf("policy/seed%d", seed), func(t *testing.T) { memoDifferential(t, policyRouteCase(t), seed) })
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("corpus/seed%03d", seed), func(t *testing.T) { memoDifferential(t, corpusRouteCase(t, seed), seed) })
	}
	d := obs.Default().Snap().Diff(before)
	if d["core.answers.memo.hits"] == 0 || d["core.answers.memo.misses"] == 0 {
		t.Errorf("core.answers.memo.{hits,misses} moved by %d, %d: the memo went untested",
			d["core.answers.memo.hits"], d["core.answers.memo.misses"])
	}
}

func memoDifferential(t *testing.T, c routeCase, seed int64) {
	const readers, phases, hot, reads = 4, 6, 6, 48
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

	response := func(s *Snapshot, comp string, q ast.Query) (string, error) {
		a, err := s.AnswersCtx(ctx, comp, q)
		if err != nil {
			return "", err
		}
		return a.Query() + " " + string(a.AppendJSON(nil)), nil
	}
	type read struct {
		at   int
		comp string
		q    ast.Query
	}
	check := func(r read) error {
		p := pairs[r.at]
		got, err := response(p.gd, r.comp, r.q)
		if err != nil {
			return err
		}
		want, err := response(p.full, r.comp, r.q)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("after %v, v%d in %s: goal-directed %s, full model %s", history, p.gd.Version(), r.comp, got, want)
		}
		return nil
	}
	run := func(rs []read) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, readers)
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(rs); i += readers {
					if err := check(rs[i]); err != nil {
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
	// Each phase draws a hot set from the pool and asks it reads times: a
	// goal as written most often, renamed or reordered otherwise, in any
	// component, on the tip three times in four.
	phase := func() []read {
		set := rng.Perm(len(c.goals))[:min(hot, len(c.goals))]
		rs := make([]read, reads)
		for i := range rs {
			q := c.goals[set[rng.Intn(len(set))]]
			switch rng.Intn(6) {
			case 0:
				q = renamed(q)
			case 1:
				q = reordered(q)
			case 2:
				q = reordered(renamed(q))
			}
			at := len(pairs) - 1
			if rng.Intn(4) == 0 {
				at = rng.Intn(len(pairs))
			}
			rs[i] = read{at, c.comps[rng.Intn(len(c.comps))], q}
		}
		return rs
	}

	run(phase())
	for p := 0; p < phases; p++ {
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
		run(phase())
	}
}

// TestHotGoalAllocs pins the allocations of an answer-memo hit on the read
// tenant: a repeated goal through AnswersCtx — its rendered text, the
// slice-cache key and lookup, the model's memo hit — and AppendJSON of
// the kept encoding into a buffer with room. A 1-row and a 200-row answer
// allocate the same count: nothing is per row. The bound is 1.25 times the
// count measured, rounded up, once the query text and the slice-cache key
// each render into one presized builder and a warm model is read without
// building the lazy cells' closures (10 before).
func TestHotGoalAllocs(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngineCtx(ctx, mustProgram(t, readsSource(400, 100)), Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Current()
	buf := make([]byte, 0, 1<<16)
	counts := make(map[string]float64)
	for _, c := range []struct {
		goal string
		rows int
	}{
		{"path(c399, X)", 1},
		{"path(c200, X)", 200},
	} {
		q := parseGoal(t, c.goal)
		a, err := s.AnswersCtx(ctx, "exc", q)
		if err != nil {
			t.Fatal(err)
		}
		if a.n != c.rows {
			t.Fatalf("%s: %d rows, the case needs %d", c.goal, a.n, c.rows)
		}
		a.AppendJSON(nil) // the miss's encoding
		before := obs.Default().Snap()
		counts[c.goal] = testing.AllocsPerRun(200, func() {
			a, err := s.AnswersCtx(ctx, "exc", q)
			if err != nil {
				t.Fatal(err)
			}
			buf = a.AppendJSON(buf[:0])
		})
		if d := obs.Default().Snap().Diff(before); obs.On() && d["core.answers.memo.misses"] != 0 {
			t.Fatalf("%s: %d memo misses in the window, want hits only", c.goal, d["core.answers.memo.misses"])
		}
	}
	const max = 3 // measured 2: the query text and the slice-cache key
	for goal, n := range counts {
		if n > max {
			t.Errorf("%s: %.0f allocs per memo hit, want <= %d", goal, n, max)
		}
	}
	if one, many := counts["path(c399, X)"], counts["path(c200, X)"]; one != many {
		t.Errorf("a 1-row hit allocates %.0f, a 200-row hit %.0f: a hit must not allocate per row", one, many)
	}
}

// TestGoalMemoHeapBounded: the answer memo keeps no answer set larger than
// the ground program it was read from, so cross-product goals, asked over
// and over, leave the heap where it was. Eight relations of 60 facts give
// 28 distinct pairwise cross products of 3 600 rows each — more rows than
// any model has rules, and few enough goals that every cache entry stays
// resident. Each repeat is answered afresh; a single relation's goal, as
// small as its model, is still kept.
func TestGoalMemoHeapBounded(t *testing.T) {
	const rels, facts = 8, 60
	var sb strings.Builder
	sb.WriteString("module base {\n")
	for r := 0; r < rels; r++ {
		for i := 0; i < facts; i++ {
			fmt.Fprintf(&sb, "  e%d(a%d, b%d).\n", r, i, i)
		}
	}
	sb.WriteString("}\n")
	ctx := context.Background()
	eng, err := NewEngineCtx(ctx, mustProgram(t, sb.String()), Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Current()
	ask := func(goal string) *Answers {
		t.Helper()
		a, err := s.AnswersCtx(ctx, "base", parseGoal(t, goal))
		if err != nil {
			t.Fatal(err)
		}
		a.JSON()
		return a
	}
	if a, b := ask("e0(X, Y)"), ask("e0(X, Y)"); a != b {
		t.Fatalf("a repeated %d-row goal was answered afresh: the memo went untested", a.n)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	var one uint64 // one cross product's ids and encoding
	for pass := 0; pass < 3; pass++ {
		for r := 0; r < rels; r++ {
			for q := r + 1; q < rels; q++ {
				goal := fmt.Sprintf("e%d(X, Y), e%d(Z, W)", r, q)
				a := ask(goal)
				if a.n != facts*facts {
					t.Fatalf("%s: %d rows, want %d", goal, a.n, facts*facts)
				}
				if b := ask(goal); b == a {
					t.Fatalf("%s: a %d-row answer set was kept", goal, a.n)
				}
				one = uint64(4*len(a.rows) + len(a.JSON()))
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(s) // and its cache entries
	grew := int64(ms.HeapAlloc) - int64(before)
	t.Logf("heap grew %d KiB over 28 cross products of %d KiB each", grew>>10, one>>10)
	if grew > int64(4*one) {
		t.Errorf("heap grew %d KiB after asking 28 cross products; one is %d KiB: answer sets stayed resident", grew>>10, one>>10)
	}
}

// BenchmarkGoalDirectedHot is query-hot's shape on the read tenant: the
// sixteen hot goals, warmed once, then asked in Zipf(1.2) proportions and
// encoded — every request an answer-memo hit.
func BenchmarkGoalDirectedHot(b *testing.B) {
	ctx := context.Background()
	eng, err := NewEngineCtx(ctx, mustProgram(b, readsSource(400, 100)), Config{GoalDirected: true})
	if err != nil {
		b.Fatal(err)
	}
	goals := hotGoals(b)
	z := workload.NewZipf(rand.New(rand.NewSource(1)), 1.2, len(goals))
	mix := make([]int, 1024)
	for i := range mix {
		mix[i] = z.Next()
	}
	var buf []byte
	for _, q := range goals {
		a, err := eng.Current().AnswersCtx(ctx, "exc", q)
		if err != nil {
			b.Fatal(err)
		}
		buf = a.AppendJSON(buf[:0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := eng.Current().AnswersCtx(ctx, "exc", goals[mix[i%len(mix)]])
		if err != nil {
			b.Fatal(err)
		}
		buf = a.AppendJSON(buf[:0])
	}
}
