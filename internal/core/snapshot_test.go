package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/ground"
	"repro/internal/parser"
)

const snapSrc = `
	module kb {
		p(a). p(b).
		bad(X) :- evil(X).
	}
	module policy extends kb {
		ok(X) :- p(X).
	}
	module exc extends policy {
		-ok(X) :- bad(X).
	}
`

func snapEngine(t *testing.T) *Engine {
	t.Helper()
	p, err := parser.ParseProgram(snapSrc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineCtx(context.Background(), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func lit(t *testing.T, s string) ast.Literal {
	t.Helper()
	l, err := parser.ParseLiteral(s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func holdsIn(t *testing.T, s *Snapshot, comp, l string) bool {
	t.Helper()
	m, err := s.LeastModelCtx(context.Background(), comp)
	if err != nil {
		t.Fatal(err)
	}
	return m.Holds(lit(t, l))
}

func TestUpdateAssertIncremental(t *testing.T) {
	e := snapEngine(t)
	v0 := e.Current()
	if v0.Version() != 0 {
		t.Fatalf("initial version = %d", v0.Version())
	}
	if !holdsIn(t, v0, "policy", "ok(a)") || holdsIn(t, v0, "policy", "ok(c)") {
		t.Fatal("unexpected base model")
	}
	v1, err := e.Update(context.Background(), "kb", []ast.Literal{lit(t, "p(c)")})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version() != 1 {
		t.Fatalf("version after update = %d", v1.Version())
	}
	if v1.Grounded() != v0.Grounded() {
		t.Fatal("assert of p(c) should have stayed incremental (shared ground program)")
	}
	if !holdsIn(t, v1, "policy", "ok(c)") {
		t.Fatal("ok(c) missing after Update")
	}
	// The parent snapshot is unaffected.
	if holdsIn(t, v0, "policy", "ok(c)") {
		t.Fatal("parent snapshot changed by Update")
	}
	if e.Current() != v1 {
		t.Fatal("Current not advanced")
	}
}

func TestUpdateNoop(t *testing.T) {
	e := snapEngine(t)
	v0 := e.Current()
	v1, err := e.Update(context.Background(), "kb", []ast.Literal{lit(t, "p(a)")})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v0 {
		t.Fatal("asserting a fact already in effect must be a no-op")
	}
	v2, err := e.Retract(context.Background(), "kb", []ast.Literal{lit(t, "evil(zz)")})
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v0 {
		t.Fatal("retracting an absent fact must be a no-op")
	}
}

func TestRetractIncrementalAndResurrect(t *testing.T) {
	e := snapEngine(t)
	ctx := context.Background()
	m0, err := e.Current().LeastModelCtx(context.Background(), "exc")
	if err != nil {
		t.Fatal(err)
	}
	// bad has a defining rule (bad(X) :- evil(X)), so its facts are not
	// EDB-shaped and both directions stay incremental.
	v1, err := e.Update(ctx, "kb", []ast.Literal{lit(t, "bad(a)")})
	if err != nil {
		t.Fatal(err)
	}
	if !holdsIn(t, v1, "exc", "-ok(a)") || holdsIn(t, v1, "exc", "ok(a)") {
		t.Fatal("exception did not overrule ok(a)")
	}
	m1, err := v1.LeastModelCtx(context.Background(), "exc")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e.Retract(ctx, "kb", []ast.Literal{lit(t, "bad(a)")})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Grounded() != v1.Grounded() {
		t.Fatal("retract of bad(a) should have stayed incremental (shared ground program)")
	}
	m2, err := v2.LeastModelCtx(context.Background(), "exc")
	if err != nil {
		t.Fatal(err)
	}
	if m2.String() != m0.String() {
		t.Fatalf("assert-then-retract is not the identity:\nv0: %s\nv2: %s", m0, m2)
	}
	// The middle version, pinned, still shows the exception.
	if !holdsIn(t, v1, "exc", "-ok(a)") {
		t.Fatal("pinned snapshot v1 changed")
	}
	v3, err := e.Update(ctx, "kb", []ast.Literal{lit(t, "bad(a)")})
	if err != nil {
		t.Fatal(err)
	}
	m3, err := v3.LeastModelCtx(context.Background(), "exc")
	if err != nil {
		t.Fatal(err)
	}
	if m3.String() != m1.String() {
		t.Fatalf("resurrection did not restore the asserted state:\nv1: %s\nv3: %s", m1, m3)
	}
	if v3.Version() != 3 {
		t.Fatalf("version = %d, want 3", v3.Version())
	}
}

func TestUpdateFallbackReground(t *testing.T) {
	e := snapEngine(t)
	ctx := context.Background()
	v0 := e.Current()
	// A negative fact cannot be applied in place; the engine regrounds the
	// effective program transparently.
	v1, err := e.Update(ctx, "exc", []ast.Literal{lit(t, "-ok(b)")})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Grounded() == v0.Grounded() {
		t.Fatal("negative fact assert must reground, not update in place")
	}
	if !holdsIn(t, v1, "exc", "-ok(b)") {
		t.Fatal("negative fact not in effect after fallback")
	}
	if !holdsIn(t, v1, "policy", "ok(b)") {
		t.Fatal("policy must not see exc's fact")
	}
	// Updates keep working after a fallback, incrementally again.
	v2, err := e.Update(ctx, "kb", []ast.Literal{lit(t, "p(d)")})
	if err != nil {
		t.Fatal(err)
	}
	if !holdsIn(t, v2, "policy", "ok(d)") || !holdsIn(t, v2, "exc", "-ok(b)") {
		t.Fatal("state lost across fallback + incremental update")
	}
	// Retract the negative fact again.
	v3, err := e.Retract(ctx, "exc", []ast.Literal{lit(t, "-ok(b)")})
	if err != nil {
		t.Fatal(err)
	}
	if holdsIn(t, v3, "exc", "-ok(b)") || !holdsIn(t, v3, "policy", "ok(d)") {
		t.Fatal("retract of negative fact not replayed correctly")
	}
}

func TestUpdateMemoSharing(t *testing.T) {
	p := ast.NewOrderedProgram()
	for _, name := range []string{"m0", "m1"} {
		c := &ast.Component{Name: name}
		c.AddRule(ast.Fact(ast.Pos(ast.Atom{Pred: "q_" + name, Args: []ast.Term{ast.Sym("a")}})))
		c.AddRule(&ast.Rule{
			Head: ast.Pos(ast.Atom{Pred: "r_" + name, Args: []ast.Term{ast.Var{Name: "X"}}}),
			Body: []ast.Literal{ast.Pos(ast.Atom{Pred: "q_" + name, Args: []ast.Term{ast.Var{Name: "X"}}})},
		})
		if err := p.AddComponent(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineCtx(context.Background(), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v0 := e.Current()
	view0, err := v0.View("m1")
	if err != nil {
		t.Fatal(err)
	}
	m0, err := v0.LeastModelCtx(context.Background(), "m1")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := e.Update(context.Background(), "m0", []ast.Literal{lit(t, "q_m0(b)")})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Grounded() != v0.Grounded() {
		t.Fatal("expected incremental update (it reground into a new ground program)")
	}
	view1, err := v1.View("m1")
	if err != nil {
		t.Fatal(err)
	}
	if view0 != view1 {
		t.Fatal("unaffected component m1 must share its view across versions")
	}
	m1, err := v1.LeastModelCtx(context.Background(), "m1")
	if err != nil {
		t.Fatal(err)
	}
	if m0 != m1 {
		t.Fatal("unaffected component m1 must share its least model across versions")
	}
	// The touched component must NOT share.
	t0, err := v0.View("m0")
	if err != nil {
		t.Fatal(err)
	}
	t1, err := v1.View("m0")
	if err != nil {
		t.Fatal(err)
	}
	if t0 == t1 {
		t.Fatal("touched component m0 must rebuild its view")
	}
	if !holdsIn(t, v1, "m0", "r_m0(b)") {
		t.Fatal("derived atom missing in touched component")
	}
}

func TestBatchPinsOneVersion(t *testing.T) {
	e := snapEngine(t)
	ctx := context.Background()
	q, err := parser.Parse("?- ok(X).")
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]QueryRequest, 16)
	for i := range reqs {
		reqs[i] = QueryRequest{Comp: "policy", Query: q.Queries[0]}
	}

	// Deterministic half: a snapshot captured before an update keeps
	// answering with its own version.
	snap := e.Current()
	if _, err := e.Update(ctx, "kb", []ast.Literal{lit(t, "p(zz1)")}); err != nil {
		t.Fatal(err)
	}
	for i, res := range snap.QueryBatchCtx(context.Background(), reqs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if len(res.Bindings) != 2 {
			t.Fatalf("item %d: pinned snapshot sees %d answers, want 2", i, len(res.Bindings))
		}
	}

	// Racing half: whatever version an Engine batch pins, every item of one
	// batch must agree — a mid-batch Update must never split a batch.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		on := false
		f := []ast.Literal{lit(t, "p(zz2)")}
		for {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if on {
				_, err = e.Retract(ctx, "kb", f)
			} else {
				_, err = e.Update(ctx, "kb", f)
			}
			if err != nil {
				t.Error(err)
				return
			}
			on = !on
		}
	}()
	for round := 0; round < 20; round++ {
		out := e.QueryBatchCtx(context.Background(), reqs)
		want := -1
		for i, res := range out {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if want == -1 {
				want = len(res.Bindings)
			} else if len(res.Bindings) != want {
				t.Fatalf("round %d: item %d saw %d answers, item 0 saw %d — batch not pinned to one version",
					round, i, len(res.Bindings), want)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestConcurrentReadersDuringUpdates(t *testing.T) {
	e := snapEngine(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := e.Current()
				a := holdsIn(t, snap, "policy", "ok(a)")
				// Re-query the same pinned snapshot: must agree with itself.
				if holdsIn(t, snap, "policy", "ok(a)") != a {
					t.Error("snapshot answered inconsistently")
					return
				}
			}
		}()
	}
	f := []ast.Literal{lit(t, "p(w)")}
	for i := 0; i < 25; i++ {
		if _, err := e.Update(ctx, "kb", f); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Retract(ctx, "kb", f); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestConfigValidation(t *testing.T) {
	p, err := parser.ParseProgram(snapSrc)
	if err != nil {
		t.Fatal(err)
	}
	var cerr *ConfigError
	if _, err := NewEngineCtx(context.Background(), p, Config{}, WithEnumBudget(-5)); !errors.As(err, &cerr) || cerr.Field != "EnumBudget" {
		t.Fatalf("want ConfigError on EnumBudget via option, got %v", err)
	}
	if _, err := NewEngineCtx(context.Background(), p, Config{Ground: ground.Options{Mode: ground.Mode(42)}}); !errors.As(err, &cerr) || cerr.Field != "Ground.Mode" {
		t.Fatalf("want ConfigError on Ground.Mode, got %v", err)
	}
	if !strings.Contains(cerr.Error(), "Ground.Mode") {
		t.Fatalf("ConfigError message %q", cerr.Error())
	}
}

func TestFunctionalOptions(t *testing.T) {
	p, err := parser.ParseProgram(snapSrc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	e, err := NewEngineCtx(context.Background(), p, Config{}, WithEnumBudget(1<<16), WithTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.EnumBudget != 1<<16 {
		t.Fatalf("options not applied: %+v", e.cfg)
	}
	if _, err := e.Update(context.Background(), "kb", []ast.Literal{lit(t, "p(x1)")}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ground:") || !strings.Contains(out, "mode=incremental") {
		t.Fatalf("trace output missing events:\n%s", out)
	}
}

func TestUpdateValidatesInput(t *testing.T) {
	e := snapEngine(t)
	ctx := context.Background()
	if _, err := e.Update(ctx, "kb", []ast.Literal{lit(t, "p(X)")}); err == nil {
		t.Fatal("non-ground assert must fail")
	}
	if _, err := e.Update(ctx, "nosuch", []ast.Literal{lit(t, "p(q)")}); err == nil {
		t.Fatal("unknown component must fail")
	}
	// Errors leave the tip unchanged.
	if e.Current().Version() != 0 {
		t.Fatal("failed update advanced the version")
	}
}

func TestRetractUniversalFactFallsBack(t *testing.T) {
	p, err := parser.ParseProgram(`
		module m {
			q(a). q(b).
			s(X) :- q(X).
			t(a). t(X).
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineCtx(context.Background(), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v0 := e.Current()
	// t(a) is a ground fact of the source AND pinned by the universal fact
	// t(X): the ground fact goes away, but a rebuild keeps the instance
	// derivable, so the engine must fall back to regrounding rather than
	// dead-mark it.
	v1, err := e.Retract(ctx, "m", []ast.Literal{lit(t, "t(a)")})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version() != 1 {
		t.Fatalf("version = %d, want 1", v1.Version())
	}
	if v1.Grounded() == v0.Grounded() {
		t.Fatal("universally pinned retract must reground, not update in place")
	}
	if !holdsIn(t, v1, "m", "t(a)") {
		t.Fatal("t(a) must survive: the universal fact t(X) regenerates it")
	}
	if !holdsIn(t, v1, "m", "t(b)") || !holdsIn(t, v1, "m", "s(a)") {
		t.Fatal("unrelated atoms lost across fallback")
	}
}

func TestRetractCompoundFactFallsBack(t *testing.T) {
	p, err := parser.ParseProgram(`
		module m {
			p(f(c)).
			p(X) :- p(X).
			q(X).
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineCtx(context.Background(), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v0 := e.Current()
	// p(f(c)) is the last occurrence of both c and the functor f: a rebuild's
	// universe collapses to the fresh-constant fallback, which no in-place
	// bookkeeping (it counts top-level constants only) can reproduce.
	v1, err := e.Retract(ctx, "m", []ast.Literal{lit(t, "p(f(c))")})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Grounded() == v0.Grounded() {
		t.Fatal("retract of a compound-argument fact must reground, not update in place")
	}
	if holdsIn(t, v1, "m", "q(c)") || holdsIn(t, v1, "m", "q(f(c))") {
		t.Fatal("stale universe terms survived the retract")
	}
	fresh, err := parser.ParseProgram(`
		module m {
			p(X) :- p(X).
			q(X).
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewEngineCtx(context.Background(), fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := v1.LeastModelCtx(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	want, err := fe.LeastModelCtx(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("retract diverged from rebuild:\nincremental: %s\nrebuild:     %s", got, want)
	}
}

func TestUpdateManyVersionsAgree(t *testing.T) {
	// A chain of updates must answer exactly like a fresh engine built from
	// the equivalent source at every step.
	e := snapEngine(t)
	ctx := context.Background()
	facts := []string{"p(c)", "evil(a)", "p(d)", "evil(b)"}
	var acc []string
	for _, f := range facts {
		if _, err := e.Update(ctx, "kb", []ast.Literal{lit(t, f)}); err != nil {
			t.Fatal(err)
		}
		acc = append(acc, f+".")
		fresh, err := parser.ParseProgram(strings.Replace(snapSrc, "p(a). p(b).", "p(a). p(b). "+strings.Join(acc, " "), 1))
		if err != nil {
			t.Fatal(err)
		}
		fe, err := NewEngineCtx(context.Background(), fresh, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, comp := range []string{"kb", "policy", "exc"} {
			got, err := e.LeastModelCtx(context.Background(), comp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fe.LeastModelCtx(context.Background(), comp)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("after %v, comp %s:\nincremental: %s\nfresh:       %s", acc, comp, got, want)
			}
		}
	}
}

func TestMergeFactsStillWorks(t *testing.T) {
	// The deprecated pre-engine path: mutate the program, then build.
	p, err := parser.ParseProgram(snapSrc)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Component("kb")
	c.AddRule(ast.Fact(ast.Pos(ast.Atom{Pred: "p", Args: []ast.Term{ast.Sym("m")}})))
	e, err := NewEngineCtx(context.Background(), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !holdsIn(t, e.Current(), "policy", "ok(m)") {
		t.Fatal("pre-engine fact merge broken")
	}
}

func ExampleEngine_Update() {
	p, _ := parser.ParseProgram(`
		module kb { p(a). }
		module policy extends kb { ok(X) :- p(X). }
	`)
	e, _ := NewEngineCtx(context.Background(), p, Config{})
	snap, _ := e.Update(context.Background(), "kb", []ast.Literal{
		{Atom: ast.Atom{Pred: "p", Args: []ast.Term{ast.Sym("b")}}},
	})
	m, _ := snap.LeastModelCtx(context.Background(), "policy")
	fmt.Println(m.Holds(ast.Pos(ast.Atom{Pred: "ok", Args: []ast.Term{ast.Sym("b")}})))
	// Output: true
}
