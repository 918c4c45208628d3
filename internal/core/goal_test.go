package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/interrupt"
	"repro/internal/oracle/gen"
	"repro/internal/parser"
	"repro/internal/stable"
)

// The goal-directed differential contract: for every goal, answers from
// the goal's slice must be byte-identical to answers from the full
// grounding — for least-model queries and proofs through the engine's
// goal-directed path (a slice cut from the snapshot's ground program), and
// for the assumption-free/stable model families of an engine grounded with
// the magic-set slice of ground.Options.Goal directly.

func mustQuery(t testing.TB, src string) ast.Query {
	t.Helper()
	res, err := parser.Parse("?- " + src + ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 1 {
		t.Fatalf("query %q: want exactly one goal", src)
	}
	return res.Queries[0]
}

// answerSet renders bindings order-independently.
func answerSet(bs []core.Binding) string {
	out := make([]string, len(bs))
	for i, b := range bs {
		parts := make([]string, 0, len(b))
		for v, term := range b {
			parts = append(parts, v+"="+term.String())
		}
		sort.Strings(parts)
		out[i] = "{" + strings.Join(parts, ",") + "}"
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// projectedAnswers renders a model family as the deduplicated set of
// per-model answer sets for the query: exactly the part of the enumeration
// a goal can observe, which is what slicing must preserve.
func projectedAnswers(t *testing.T, ms []*core.Model, err error, q ast.Query) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool, len(ms))
	for _, m := range ms {
		set[answerSet(m.Query(q))] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " || ")
}

// chainSource builds the right-recursive transitive closure over an
// n-edge chain with an exception component and a disconnected junk
// component — the program family where the adornment actually restricts
// bindings (path^bf), unlike the head-unbound corpus rules.
func chainSource(t testing.TB, n, excAt int) *ast.OrderedProgram {
	t.Helper()
	var b strings.Builder
	b.WriteString("module base {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  edge(c%d, c%d).\n", i, i+1)
	}
	b.WriteString("  path(X, Y) :- edge(X, Y).\n")
	b.WriteString("  path(X, Z) :- path(X, Y), edge(Y, Z).\n")
	b.WriteString("}\n")
	fmt.Fprintf(&b, "module exc extends base {\n  -path(X, c%d) :- edge(X, c%d).\n}\n", excAt, excAt)
	b.WriteString("module junk {\n  jedge(c0, c1).\n  jpath(X, Y) :- jedge(X, Y).\n}\n")
	p, err := parser.ParseProgram(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func diffGoals(t *testing.T, prog *ast.OrderedProgram, queries []string, proofs []string) {
	t.Helper()
	ctx := context.Background()
	full, err := core.NewEngineCtx(context.Background(), prog, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gd, err := core.NewEngineCtx(context.Background(), prog, core.Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(prog.Components))
	for i, c := range prog.Components {
		names[i] = c.Name
	}
	for _, qs := range queries {
		q := mustQuery(t, qs)
		// An engine grounded with a fixed Ground.Goal evaluates everything —
		// least, AF and stable models — over the slice; its projected
		// model families must match the full engine's.
		opts := ground.DefaultOptions()
		opts.Goal = q.Body
		slicedEng, err := core.NewEngineCtx(context.Background(), prog, core.Config{Ground: opts})
		if err != nil {
			t.Fatalf("goal %s: sliced engine: %v", qs, err)
		}
		for _, name := range names {
			want, err := full.Current().QueryCtx(ctx, name, q)
			if err != nil {
				t.Fatalf("goal %s in %s: full query: %v", qs, name, err)
			}
			got, err := gd.Current().QueryCtx(ctx, name, q)
			if err != nil {
				t.Fatalf("goal %s in %s: goal-directed query: %v", qs, name, err)
			}
			if w, g := answerSet(want), answerSet(got); w != g {
				t.Errorf("goal %s in %s: least answers diverged\nfull:  %s\nslice: %s", qs, name, w, g)
			}
			wantAF, errW := full.Current().AssumptionFreeModelsCtx(context.Background(), name, stable.Options{})
			gotAF, errG := slicedEng.Current().AssumptionFreeModelsCtx(context.Background(), name, stable.Options{})
			if w, g := projectedAnswers(t, wantAF, errW, q), projectedAnswers(t, gotAF, errG, q); w != g {
				t.Errorf("goal %s in %s: AF projections diverged\nfull:  %s\nslice: %s", qs, name, w, g)
			}
			wantSt, errW := full.Current().StableModelsCtx(context.Background(), name, stable.Options{})
			gotSt, errG := slicedEng.Current().StableModelsCtx(context.Background(), name, stable.Options{})
			if w, g := projectedAnswers(t, wantSt, errW, q), projectedAnswers(t, gotSt, errG, q); w != g {
				t.Errorf("goal %s in %s: stable projections diverged\nfull:  %s\nslice: %s", qs, name, w, g)
			}
		}
	}
	for _, ps := range proofs {
		l, err := parser.ParseLiteral(ps)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			want, err := full.Current().ProveCtx(ctx, name, l)
			if err != nil {
				t.Fatalf("prove %s in %s: full: %v", ps, name, err)
			}
			got, err := gd.Current().ProveCtx(ctx, name, l)
			if err != nil {
				t.Fatalf("prove %s in %s: goal-directed: %v", ps, name, err)
			}
			if want != got {
				t.Errorf("prove %s in %s: full %v, goal-directed %v", ps, name, want, got)
			}
		}
	}
}

func TestGoalDirectedDifferentialCorpus(t *testing.T) {
	const comps, nconst = 3, 3
	programs := 200
	if testing.Short() {
		programs = 40
	}
	queries := []string{
		"p0(c0)", "p1(X)", "-p1(c1)", "e(c0, X)", "p0(X), e(X, Y)",
		"e(X, c1)", "-p2(X)", "e(c1, c2)", "p0(X), -p1(X)", "nosuch(X)",
	}
	proofs := []string{"p0(c0)", "-p1(c1)", "p2(c2)", "e(c0, c1)"}
	for seed := 0; seed < programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			prog := gen.RandomOrderedDatalog(rng, comps, nconst)
			diffGoals(t, prog, queries, proofs)
		})
	}
}

func TestGoalDirectedDifferentialChain(t *testing.T) {
	sizes := []struct{ n, excAt int }{{4, 2}, {6, 6}, {8, 5}}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, sz := range sizes {
		sz := sz
		t.Run(fmt.Sprintf("n%d_exc%d", sz.n, sz.excAt), func(t *testing.T) {
			t.Parallel()
			prog := chainSource(t, sz.n, sz.excAt)
			queries := []string{
				fmt.Sprintf("path(c0, c%d)", sz.n),
				"path(c0, X)",
				"path(c1, X)",
				"path(X, Y)",
				"path(c0, X), edge(X, Y)",
				fmt.Sprintf("-path(c0, c%d)", sz.excAt),
				fmt.Sprintf("path(X, c%d)", sz.n-1),
				fmt.Sprintf("-path(X, c%d)", sz.excAt),
				"-path(X, Y)",
				fmt.Sprintf("path(c1, X), path(X, c%d)", sz.n),
				"jpath(X, Y)",
				"nosuch(c0, X)",
			}
			proofs := []string{
				"path(c0, c1)",
				fmt.Sprintf("path(c0, c%d)", sz.n),
				fmt.Sprintf("-path(c0, c%d)", sz.excAt),
				fmt.Sprintf("path(c1, c%d)", sz.n),
				"path(c2, c0)",
				"jpath(c0, c1)",
			}
			diffGoals(t, prog, queries, proofs)
		})
	}
}

// After an update, goal-directed answers must reflect the new fact base
// (the per-snapshot slice cache starts empty and the slice grounds from
// the effective program), while a pinned pre-update snapshot keeps
// answering from its own version.
func TestGoalDirectedUpdateInvalidation(t *testing.T) {
	ctx := context.Background()
	prog := chainSource(t, 4, 2)
	gd, err := core.NewEngineCtx(ctx, prog, core.Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.NewEngineCtx(ctx, chainSource(t, 4, 2), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, "path(c0, X)")
	pinned := gd.Current()
	before, err := pinned.QueryCtx(ctx, "base", q)
	if err != nil {
		t.Fatal(err)
	}
	lit, err := parser.ParseLiteral("edge(c4, c9)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gd.Update(ctx, "base", []ast.Literal{lit}); err != nil {
		t.Fatal(err)
	}
	if _, err := full.Update(ctx, "base", []ast.Literal{lit}); err != nil {
		t.Fatal(err)
	}
	after, err := gd.Current().QueryCtx(ctx, "base", q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Current().QueryCtx(ctx, "base", q)
	if err != nil {
		t.Fatal(err)
	}
	if answerSet(after) != answerSet(want) {
		t.Errorf("post-update answers diverged\nfull:  %s\nslice: %s", answerSet(want), answerSet(after))
	}
	if answerSet(after) == answerSet(before) {
		t.Error("update did not change the answer set — the invalidation case is vacuous")
	}
	// The pinned snapshot still answers from the pre-update fact base.
	pinnedAgain, err := pinned.QueryCtx(ctx, "base", q)
	if err != nil {
		t.Fatal(err)
	}
	if answerSet(pinnedAgain) != answerSet(before) {
		t.Errorf("pinned snapshot answers changed after update\nbefore: %s\nafter:  %s", answerSet(before), answerSet(pinnedAgain))
	}
}

// Cancellation contract: a cancelled goal-directed query returns an
// interruption error and leaks no partial slice — the next query with a
// live context recomputes the slice and answers exactly like the full
// path.
func TestGoalDirectedCancellation(t *testing.T) {
	prog := chainSource(t, 30, 15)
	gd, err := core.NewEngineCtx(context.Background(), prog, core.Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.NewEngineCtx(context.Background(), prog, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, "path(c0, X)")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := gd.Current().QueryCtx(cancelled, "base", q); !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("cancelled goal-directed query: err = %v, want ErrInterrupted", err)
	}
	if _, err := gd.Current().ProveCtx(cancelled, "base", mustLit(t, "path(c0, c30)")); !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("cancelled goal-directed prove: err = %v, want ErrInterrupted", err)
	}
	ctx := context.Background()
	got, err := gd.Current().QueryCtx(ctx, "base", q)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	want, err := full.Current().QueryCtx(ctx, "base", q)
	if err != nil {
		t.Fatal(err)
	}
	if answerSet(got) != answerSet(want) {
		t.Errorf("answers after interrupted slice diverged\nfull:  %s\nslice: %s", answerSet(want), answerSet(got))
	}
}

func mustLit(t *testing.T, src string) ast.Literal {
	t.Helper()
	l, err := parser.ParseLiteral(src)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// The batch entry points inherit the goal-directed routing.
func TestGoalDirectedBatch(t *testing.T) {
	prog := chainSource(t, 6, 3)
	gd, err := core.NewEngineCtx(context.Background(), prog, core.Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.NewEngineCtx(context.Background(), prog, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []core.QueryRequest{
		{Comp: "base", Query: mustQuery(t, "path(c0, X)")},
		{Comp: "exc", Query: mustQuery(t, "path(c1, X)")},
		{Comp: "base", Query: mustQuery(t, "path(X, c6)")},
	}
	got := gd.QueryBatchCtx(context.Background(), reqs)
	want := full.QueryBatchCtx(context.Background(), reqs)
	for i := range reqs {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("batch[%d]: errs full=%v goal-directed=%v", i, want[i].Err, got[i].Err)
		}
		if g, w := answerSet(got[i].Bindings), answerSet(want[i].Bindings); g != w {
			t.Errorf("batch[%d]: answers diverged\nfull:  %s\nslice: %s", i, w, g)
		}
	}
}

// BenchmarkQueryBatch answers 64 distinct path(cI, X) goals per op, once
// through QueryBatchCtx's GOMAXPROCS pool and once in a plain QueryCtx
// loop, on a goal-directed engine and on a full-model one. The goals
// outnumber the 32-entry slice cache and recur in the same order, so on
// the goal-directed engine every goal cuts and evaluates its slice; on the
// full-model engine the component's least model is computed once and
// every goal is a lookup. This is the measurement that keeps the batch
// pool (EXPERIMENTS.md "One entry point per question").
func BenchmarkQueryBatch(b *testing.B) {
	const goals = 64
	prog := chainSource(b, 120, 60)
	reqs := make([]core.QueryRequest, goals)
	for i := range reqs {
		reqs[i] = core.QueryRequest{Comp: "exc", Query: mustQuery(b, fmt.Sprintf("path(c%d, X)", i))}
	}
	ctx := context.Background()
	for _, eng := range []struct {
		name string
		cfg  core.Config
	}{{"goal-directed", core.Config{GoalDirected: true}}, {"full", core.Config{}}} {
		e, err := core.NewEngineCtx(context.Background(), prog, eng.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(eng.name+"/loop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range reqs {
					if _, err := e.QueryCtx(ctx, r.Comp, r.Query); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(eng.name+"/batch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range e.QueryBatchCtx(ctx, reqs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// Configuration: a cut needs only a ground program, not smart grounding,
// so a goal-directed engine over the exhaustive grounder is accepted and
// answers exactly like the full one. The one rejected combination is a
// fixed Ground.Goal.
func TestGoalDirectedConfigValidation(t *testing.T) {
	ctx := context.Background()
	prog := chainSource(t, 4, 2)
	fullMode := ground.DefaultOptions()
	fullMode.Mode = ground.ModeFull
	gd, err := core.NewEngineCtx(ctx, prog, core.Config{GoalDirected: true, Ground: fullMode})
	if err != nil {
		t.Fatalf("GoalDirected over ModeFull: %v", err)
	}
	full, err := core.NewEngineCtx(ctx, prog, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range []string{"path(c0, X)", "path(X, c3)", "-path(X, Y)", "path(c0, X), edge(X, Y)"} {
		q := mustQuery(t, qs)
		for _, comp := range []string{"base", "exc"} {
			want, err := full.Current().QueryCtx(ctx, comp, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := gd.Current().QueryCtx(ctx, comp, q)
			if err != nil {
				t.Fatal(err)
			}
			if w, g := answerSet(want), answerSet(got); w != g {
				t.Errorf("%s in %s: ModeFull slice diverged\nfull:  %s\nslice: %s", qs, comp, w, g)
			}
		}
	}
	fixed := ground.DefaultOptions()
	fixed.Goal = mustQuery(t, "path(c0, X)").Body
	if _, err := core.NewEngineCtx(ctx, prog, core.Config{GoalDirected: true, Ground: fixed}); err == nil {
		t.Error("GoalDirected with a fixed Ground.Goal accepted")
	}
}

// Slices after writes: each published version's cold goals agree with a
// non-goal-directed engine taking the same writes — retracted instances
// are dead, appended ones live, resurrected ones live again — and every
// pinned version, asked goals it has never seen only after later writes
// exist, still answers as of its own version. The first goal is asked
// after two writes, so the oldest versions cut from a head index covering
// instances they do not pin, and the later ones cut their own tails.
func TestGoalDirectedAfterWritesAndPinned(t *testing.T) {
	ctx := context.Background()
	gd, err := core.NewEngineCtx(ctx, chainSource(t, 6, 3), core.Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.NewEngineCtx(ctx, chainSource(t, 6, 3), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	goals := []string{"path(c0, X)", "path(X, c6)", "path(X, c9)", "-path(X, c3)", "path(c2, c9)", "edge(X, Y)"}
	ops := []struct {
		retract bool
		comp    string
		fact    string
	}{
		{false, "base", "edge(c6, c9)"},  // appends instances over a fresh constant
		{true, "base", "edge(c2, c3)"},   // kills instances through the dead set
		{false, "exc", "edge(c1, c3)"},   // appends in the more specific component
		{false, "base", "edge(c2, c3)"},  // resurrects the retracted fact
		{true, "base", "edge(c6, c9)"},   // retracts a fact the program never had
		{false, "base", "-path(c0, c4)"}, // a negative fact (reground fallback)
		{true, "exc", "edge(c1, c3)"},
	}
	want := map[uint64]map[string]string{} // version -> goal -> answers
	record := func() *core.Snapshot {
		snap := full.Current()
		per := map[string]string{}
		for _, g := range goals {
			for _, comp := range []string{"base", "exc"} {
				bs, err := snap.QueryCtx(ctx, comp, mustQuery(t, g))
				if err != nil {
					t.Fatal(err)
				}
				per[comp+" "+g] = answerSet(bs)
			}
		}
		want[snap.Version()] = per
		return snap
	}
	check := func(snap *core.Snapshot, goals []string) {
		t.Helper()
		for _, g := range goals {
			for _, comp := range []string{"base", "exc"} {
				bs, err := snap.QueryCtx(ctx, comp, mustQuery(t, g))
				if err != nil {
					t.Fatal(err)
				}
				if w, got := want[snap.Version()][comp+" "+g], answerSet(bs); w != got {
					t.Errorf("v%d %s in %s: slice diverged\nfull:  %s\nslice: %s", snap.Version(), g, comp, w, got)
				}
			}
		}
	}
	record()
	pinned := []*core.Snapshot{gd.Current()}
	for i, op := range ops {
		write := func(e *core.Engine) (*core.Snapshot, error) {
			if op.retract {
				return e.Retract(ctx, op.comp, []ast.Literal{mustLit(t, op.fact)})
			}
			return e.Update(ctx, op.comp, []ast.Literal{mustLit(t, op.fact)})
		}
		if _, err := write(full); err != nil {
			t.Fatal(err)
		}
		snap, err := write(gd)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Version() != full.Current().Version() {
			t.Fatalf("versions diverged: %d vs %d", snap.Version(), full.Current().Version())
		}
		record()
		if i > 0 {
			check(snap, goals[:len(goals)/2])
		}
		pinned = append(pinned, snap)
	}
	for _, snap := range pinned {
		check(snap, goals)
	}
}

// Concurrent cold goals on whatever version is current while a writer
// publishes: every answer equals the full least model of the version the
// reader pinned, including ground goals over atoms a later write interns.
// Under -race this also checks that the shared head index, each snapshot's
// cut state and the atom table's sub-tables are read safely while the
// writer appends to the ground program.
func TestGoalDirectedColdGoalsRaceWriter(t *testing.T) {
	ctx := context.Background()
	eng, err := core.NewEngineCtx(ctx, chainSource(t, 12, 6), core.Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	const readers, perReader, writes = 6, 40, 30
	facts := make([][]ast.Literal, writes)
	for i := range facts {
		facts[i] = []ast.Literal{mustLit(t, fmt.Sprintf("edge(c%d, c%d)", i%12, 12+i%5))}
	}
	var queries []ast.Query
	for c := 0; c < 17; c++ {
		for _, f := range []string{"path(c%d, X)", "path(X, c%d)", "-path(X, c%d)", "path(c3, c%d)"} {
			queries = append(queries, mustQuery(t, fmt.Sprintf(f, c)))
		}
	}
	done := make(chan struct{})
	errs := make(chan error, readers+1)
	go func() {
		defer close(done)
		for i, f := range facts {
			var err error
			if i%3 == 2 {
				_, err = eng.Retract(ctx, "base", f)
			} else {
				_, err = eng.Update(ctx, "base", f)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < perReader; i++ {
				snap := eng.Current()
				q := queries[rng.Intn(len(queries))]
				got, err := snap.QueryCtx(ctx, "exc", q)
				if err != nil {
					errs <- err
					return
				}
				m, err := snap.LeastModelCtx(ctx, "exc")
				if err != nil {
					errs <- err
					return
				}
				if w, g := answerSet(m.Query(q)), answerSet(got); w != g {
					errs <- fmt.Errorf("v%d %s: slice %s, full model %s", snap.Version(), q, g, w)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
