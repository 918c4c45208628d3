package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/oracle/gen"
	"repro/internal/oracle/parsetest"
	"repro/internal/proof"
)

// explainOK explains l in comp as of s and fails unless it is proved.
func explainOK(tb testing.TB, s *Snapshot, comp string, l ast.Literal) string {
	tb.Helper()
	tree, ok, err := s.ProveExplainCtx(context.Background(), comp, l)
	if err != nil || !ok {
		tb.Fatalf("explain %s in %s at v%d: ok %v, err %v", l, comp, s.Version(), ok, err)
	}
	return tree
}

// explainNo explains l in comp as of s and fails unless it answers no.
func explainNo(t *testing.T, s *Snapshot, comp string, l ast.Literal) {
	t.Helper()
	tree, ok, err := s.ProveExplainCtx(context.Background(), comp, l)
	if err != nil || ok || tree != "" {
		t.Fatalf("explain %s in %s at v%d: ok %v, err %v, tree %q; want no", l, comp, s.Version(), ok, err, tree)
	}
}

// A literal over an atom interned after the pinned version answers no,
// from the version that pinned fewer atoms and from a later version
// sharing the component's state, whose stages were sized by the earlier
// one; Explain itself answers no for a literal past its stages.
func TestExplainPastPinnedAtoms(t *testing.T) {
	ctx := context.Background()
	e, err := NewEngineCtx(ctx, mustProgram(t, gen.PolicySource(20)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	v0 := e.Current()
	explainOK(t, v0, "policy", lit(t, "ok(c5)")) // fills policy's stages
	v1, err := e.Update(ctx, "exc", []ast.Literal{lit(t, "bad(z9)")})
	if err != nil {
		t.Fatal(err)
	}
	explainOK(t, v1, "exc", lit(t, "bad(z9)"))
	explainOK(t, v1, "exc", lit(t, "-ok(z9)"))
	explainNo(t, v0, "exc", lit(t, "bad(z9)"))
	explainNo(t, v0, "exc", lit(t, "-ok(z9)"))
	explainNo(t, v1, "policy", lit(t, "-ok(z9)"))
	explainNo(t, v1, "policy", lit(t, "bad(z9)"))

	i, _ := v0.resolve("policy")
	if v1.comp(i) != v0.comp(i) {
		t.Fatal("a write to exc gave policy a new state")
	}
	stages := *v0.comp(i).stages.Load()
	id, ok := v1.gp.Tab.Lookup(lit(t, "bad(z9)").Atom)
	if !ok || 2*int(id) < len(stages) {
		t.Fatalf("bad(z9) is atom %d (interned %v), policy has %d stages", id, ok, len(stages))
	}
	if tree, ok, err := proof.Explain(v0.viewAt(i), stages, interp.MkLit(id, false)); tree != nil || ok || err != nil {
		t.Fatalf("Explain past the stages: %v %v %v", tree, ok, err)
	}
}

// A non-member answers no from the component's least model: no stage run
// is recorded, and the first member explained records one.
func TestExplainNonMemberRunsNoStages(t *testing.T) {
	for _, cfg := range []Config{{}, {GoalDirected: true}} {
		e, err := NewEngineCtx(context.Background(), mustProgram(t, gen.PolicySource(20)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := e.Current()
		i, _ := s.resolve("exc")
		for _, l := range []string{"ok(c5)", "-ok(c5)", "-p(c3)"} {
			explainNo(t, s, "exc", lit(t, l))
		}
		if s.comp(i).stages.Load() != nil {
			t.Fatalf("goal-directed %v: a non-member's explanation ran the stages", cfg.GoalDirected)
		}
		explainOK(t, s, "exc", lit(t, "p(c5)"))
		if s.comp(i).stages.Load() == nil {
			t.Fatalf("goal-directed %v: a member's explanation kept no stages", cfg.GoalDirected)
		}
		explainNo(t, s, "exc", lit(t, "-ok(c5)"))
	}
}

// A write that changes a component gives the child version its own
// stages: its explanations are those of an engine built afresh from its
// effective program, while the pinned parent keeps explaining as before.
func TestExplainAfterWriteOwnStages(t *testing.T) {
	const src = `module base {
  edge(a, b). edge(b, c).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- path(X, Y), edge(Y, Z).
}
module exc extends base {
  -path(X, b) :- edge(X, b), blocked(X).
  -blocked(a).
}
`
	ctx := context.Background()
	for _, cfg := range []Config{{}, {GoalDirected: true}} {
		e, err := NewEngineCtx(ctx, mustProgram(t, src), cfg)
		if err != nil {
			t.Fatal(err)
		}
		v0 := e.Current()
		before := explainOK(t, v0, "exc", lit(t, "path(a, c)"))
		// edge(a, c) gives path(a, c) a one-step derivation; edge(c, d)
		// adds path(a, d), which v0's stages do not hold.
		v1, err := e.Update(ctx, "base", []ast.Literal{lit(t, "edge(a, c)"), lit(t, "edge(c, d)")})
		if err != nil {
			t.Fatal(err)
		}
		i, _ := v1.resolve("exc")
		if v1.comp(i) == v0.comp(i) {
			t.Fatal("the write left exc's state shared")
		}
		eff, err := v1.EffectiveProgram()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewEngineCtx(ctx, eff, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []string{"path(a, c)", "path(a, d)", "path(b, d)"} {
			got := explainOK(t, v1, "exc", lit(t, l))
			if want := explainOK(t, fresh.Current(), "exc", lit(t, l)); got != want {
				t.Fatalf("goal-directed %v: %s after the write explains\n%s\nfresh engine explains\n%s", cfg.GoalDirected, l, got, want)
			}
		}
		if got := explainOK(t, v0, "exc", lit(t, "path(a, c)")); got != before {
			t.Fatalf("the pinned parent's explanation changed:\n%s\nwas\n%s", got, before)
		}
		explainNo(t, v0, "exc", lit(t, "path(a, d)"))
	}
}

// Concurrent first explanations of one component state may each run the
// stages; every one renders the tree a lone explanation renders.
func TestExplainConcurrentFirst(t *testing.T) {
	ctx := context.Background()
	p, l := mustProgram(t, gen.ReadsSource(24, 12)), lit(t, "path(c0, c9)")
	e, err := NewEngineCtx(ctx, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := explainOK(t, e.Current(), "exc", l)
	e, err = NewEngineCtx(ctx, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Current()
	var wg sync.WaitGroup
	got := make([]string, 8)
	errs := make([]error, len(got))
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tree, ok, err := s.ProveExplainCtx(ctx, "exc", l)
			if err == nil && !ok {
				err = errors.New("not proved")
			}
			got[g], errs[g] = tree, err
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil || got[g] != want {
			t.Fatalf("goroutine %d: err %v, tree\n%s\nwant\n%s", g, errs[g], got[g], want)
		}
	}
}

// repeatExplainBytes is the heap a repeat explanation of ok(c5) in policy
// allocates on policySource(kb), averaged over 50 calls.
func repeatExplainBytes(t *testing.T, kb int) float64 {
	e, err := NewEngineCtx(context.Background(), mustProgram(t, gen.PolicySource(kb)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, l := e.Current(), lit(t, "ok(c5)")
	first := explainOK(t, s, "policy", l)
	const n = 50
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if explainOK(t, s, "policy", l) != first {
			t.Fatal("a repeat explanation differs from the first")
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / n
}

// A repeat explanation costs O(tree): the bytes it allocates do not grow
// with the component's size when the tree does not.
func TestExplainRepeatBytesFlat(t *testing.T) {
	small, large := repeatExplainBytes(t, 100), repeatExplainBytes(t, 1000)
	t.Logf("repeat explanation: %.0f B at 100 facts, %.0f B at 1000", small, large)
	if large > 1.25*small {
		t.Fatalf("a repeat explanation allocates %.0f B at 1000 facts, %.0f B at 100: it grows with the component", large, small)
	}
}

// BenchmarkProveExplain times a component's first explanation on a fresh
// engine (least model, view and stage run) and a repeat one on the same
// version, for ok(c5) in policy of policySource(1000) and path(c0, c150)
// in exc of readsSource(400, 100).
func BenchmarkProveExplain(b *testing.B) {
	ctx := context.Background()
	for _, c := range []struct{ name, src, comp, lit string }{
		{"policy1000", gen.PolicySource(1000), "policy", "ok(c5)"},
		{"reads400", gen.ReadsSource(400, 100), "exc", "path(c0, c150)"},
	} {
		p, l := mustProgram(b, c.src), parsetest.MustParseLiteral(c.lit)
		newEngine := func() *Engine {
			e, err := NewEngineCtx(ctx, p, Config{})
			if err != nil {
				b.Fatal(err)
			}
			return e
		}
		b.Run(c.name+"/first", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := newEngine().Current()
				b.StartTimer()
				explainOK(b, s, c.comp, l)
			}
		})
		b.Run(c.name+"/repeat", func(b *testing.B) {
			s := newEngine().Current()
			explainOK(b, s, c.comp, l)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				explainOK(b, s, c.comp, l)
			}
		})
	}
}
