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
