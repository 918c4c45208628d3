package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ast"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/oracle/naive"
)

// proveVersion is one published version of a prove differential: the two
// engines' snapshots of it and, per component, the membership oracle of
// the freshly grounded effective program.
type proveVersion struct {
	full, gd *Snapshot
	history  []string
	holds    map[string]func(ast.Literal) bool
	sample   []ast.Literal
}

// ProveCtx is membership in the least model, on every version. Over the
// read tenant, the write tenant and the seeded corpus, a full and a
// goal-directed engine take the same seeded writes — asserts, retracts,
// fresh constants and reground fallbacks — and after every write four
// concurrent provers check sampled positive and negative literals on the
// tip and on versions pinned earlier. Each proof must equal membership in
// the naive least model of the effective program grounded afresh
// (internal/oracle/naive), and the non-emptiness of QueryCtx on the same
// literal.
func TestProveDifferential(t *testing.T) {
	seeds := []int64{0, 10, 20, 30, 40, 50, 60, 70}
	if testing.Short() {
		seeds = seeds[:3]
	}
	t.Run("reads", func(t *testing.T) { proveDifferential(t, readsRouteCase(t), 1) })
	t.Run("policy", func(t *testing.T) { proveDifferential(t, policyRouteCase(t), 2) })
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("corpus/seed%03d", seed), func(t *testing.T) { proveDifferential(t, corpusRouteCase(t, seed), seed) })
	}
}

func proveDifferential(t *testing.T, c routeCase, seed int64) {
	const provers, writes, perVersion, pinnedReads = 4, 12, 24, 16
	ctx := context.Background()
	full, err := NewEngineCtx(ctx, c.prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	gd, err := NewEngineCtx(ctx, c.prog, Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var log []factEvent
	var history []string
	// oracle grounds the effective program of the log afresh and samples
	// literals over its atoms and over the write pool's (fresh ones among
	// them), each in both signs.
	oracle := func(full, gd *Snapshot) proveVersion {
		t.Helper()
		eff, err := effectiveProgramOracle(c.prog, log)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ground.GroundCtx(ctx, eff, ground.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		pv := proveVersion{full: full, gd: gd, history: append([]string(nil), history...), holds: make(map[string]func(ast.Literal) bool)}
		for _, comp := range c.comps {
			v, err := naive.NewViewByName(g, comp)
			if err != nil {
				t.Fatal(err)
			}
			in, err := naive.LeastModelNaiveCtx(ctx, v)
			if err != nil {
				t.Fatal(err)
			}
			pv.holds[comp] = func(l ast.Literal) bool {
				id, ok := g.Tab.Lookup(l.Atom)
				return ok && in.HasLit(interp.MkLit(id, l.Neg))
			}
		}
		for k := 0; k < perVersion; k++ {
			var a ast.Atom
			if k%4 == 3 {
				a = c.writes[rng.Intn(len(c.writes))].fact.Atom
			} else {
				a = g.Tab.Atom(interp.AtomID(rng.Intn(g.Tab.Len())))
			}
			pv.sample = append(pv.sample, ast.Pos(a), ast.Neg(a))
		}
		return pv
	}
	type proveRead struct {
		v    *proveVersion
		comp string
		l    ast.Literal
	}
	check := func(r proveRead) error {
		want := r.v.holds[r.comp](r.l)
		for _, s := range []*Snapshot{r.v.full, r.v.gd} {
			got, err := s.ProveCtx(ctx, r.comp, r.l)
			if err != nil {
				return err
			}
			rows, err := s.QueryCtx(ctx, r.comp, ast.Query{Body: []ast.Literal{r.l}})
			if err != nil {
				return err
			}
			if got != want || (len(rows) > 0) != want {
				return fmt.Errorf("after %v, v%d %s in %s (goal-directed %v): proved %v, %d query rows, oracle %v",
					r.v.history, s.Version(), r.l, r.comp, s.eng.cfg.GoalDirected, got, len(rows), want)
			}
		}
		return nil
	}
	run := func(reads []proveRead) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, provers)
		for w := 0; w < provers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(reads); i += provers {
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
	versions := []*proveVersion{}
	reads := func() []proveRead {
		tip := versions[len(versions)-1]
		var rs []proveRead
		for _, l := range tip.sample {
			rs = append(rs, proveRead{tip, c.comps[rng.Intn(len(c.comps))], l})
		}
		for i := 0; i < pinnedReads; i++ {
			v := versions[rng.Intn(len(versions))]
			rs = append(rs, proveRead{v, c.comps[rng.Intn(len(c.comps))], v.sample[rng.Intn(len(v.sample))]})
		}
		return rs
	}
	pv := oracle(full.Current(), gd.Current())
	versions = append(versions, &pv)
	run(reads())
	for step := 0; step < writes; step++ {
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
		ci, _ := c.prog.ComponentIndex(w.comp)
		log = append(log, factEvent{comp: ci, lit: w.fact, retract: verb == "retract"})
		if sg.Version() != versions[len(versions)-1].gd.Version() {
			pv := oracle(sf, sg)
			versions = append(versions, &pv)
		}
		run(reads())
	}
}

// TestProveAfterWriteBuildsNoView: once the component's model exists, a
// proof after a write reads the model the write's cone derives and builds
// no view. On the write tenant, 50 assert-then-prove pairs move
// core.view.builds by exactly 0 and core.least.cone by exactly 50.
func TestProveAfterWriteBuildsNoView(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngineCtx(ctx, mustProgram(t, policySource(100)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := eng.ProveCtx(ctx, "exc", lit(t, "p(c0)")); err != nil || !ok {
		t.Fatalf("p(c0) on v0: %v, %v", ok, err)
	}
	before := obs.Default().Snap()
	for j := 0; j < 50; j++ {
		s, err := eng.Update(ctx, "exc", []ast.Literal{lit(t, fmt.Sprintf("bad(c%d)", j))})
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := s.ProveCtx(ctx, "exc", lit(t, fmt.Sprintf("-ok(c%d)", j))); err != nil || !ok {
			t.Fatalf("-ok(c%d) after asserting bad(c%[1]d): %v, %v", j, ok, err)
		}
	}
	d := obs.Default().Snap().Diff(before)
	if d["core.view.builds"] != 0 || d["core.least.cone"] != 50 {
		t.Errorf("50 write+prove pairs: core.view.builds = %d (want 0), core.least.cone = %d (want 50)",
			d["core.view.builds"], d["core.least.cone"])
	}
}

// BenchmarkProveParallel proves ok/1 literals in the policy component of
// the write tenant from 1 and from 8 goroutines on one snapshot whose
// model is warm, on a full and on a goal-directed engine. ns/op is wall
// time per proof over all goroutines, so 8 goroutines at no more than 1's
// per-op time means proofs of one component do not queue on each other.
func BenchmarkProveParallel(b *testing.B) {
	const kb = 1000
	ctx := context.Background()
	goals := make([]ast.Literal, sliceCacheSize/2) // every goal's entry stays cached
	for j := range goals {
		goals[j] = ast.Pos(ast.Atom{Pred: "ok", Args: []ast.Term{ast.Sym(fmt.Sprintf("c%d", j*kb/len(goals)))}})
	}
	for _, mode := range []struct {
		name string
		cfg  Config
	}{{"full", Config{}}, {"goal-directed", Config{GoalDirected: true}}} {
		eng, err := NewEngineCtx(ctx, mustProgram(b, policySource(kb)), mode.cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := eng.Current()
		for _, g := range goals { // warm: the model, and on the goal-directed engine each goal's entry
			if ok, err := s.ProveCtx(ctx, "policy", g); err != nil || !ok {
				b.Fatalf("%s: %v, %v", g, ok, err)
			}
		}
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", mode.name, workers), func(b *testing.B) {
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ReportAllocs()
				b.ResetTimer()
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
							if ok, err := s.ProveCtx(ctx, "policy", goals[i%int64(len(goals))]); err != nil || !ok {
								b.Errorf("prove: %v, %v", ok, err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
