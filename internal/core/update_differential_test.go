package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/oracle/gen"
	"repro/internal/stable"
)

// The differential contract of incremental maintenance: after any sequence
// of Update/Retract calls, the engine must answer exactly like an engine
// freshly built from the equivalently edited source. The shadow replay here
// is deliberately independent of the engine's own effective-program code —
// sharing it would mask bugs in either copy.

type diffOp struct {
	comp    int
	lit     ast.Literal
	retract bool
}

func (o diffOp) String() string {
	verb := "assert"
	if o.retract {
		verb = "retract"
	}
	return fmt.Sprintf("%s m%d %s", verb, o.comp, o.lit)
}

// randomOp draws facts over the generator's predicate alphabet (p0..p3/1,
// e/2) and constants c0..c(nconst+1) — the top two are fresh, so asserts
// grow the universe and retracts sometimes target absent facts. Negative
// facts appear too; asserting one exercises the reground fallback.
func randomOp(rng *rand.Rand, comps, nconst int) diffOp {
	cst := func() ast.Term {
		return ast.Sym(fmt.Sprintf("c%d", rng.Intn(nconst+2)))
	}
	var l ast.Literal
	if rng.Intn(3) == 0 {
		l = ast.Pos(ast.Atom{Pred: "e", Args: []ast.Term{cst(), cst()}})
	} else {
		a := ast.Atom{Pred: fmt.Sprintf("p%d", rng.Intn(4)), Args: []ast.Term{cst()}}
		if rng.Intn(4) == 0 {
			l = ast.Neg(a)
		} else {
			l = ast.Pos(a)
		}
	}
	return diffOp{comp: rng.Intn(comps), lit: l, retract: rng.Intn(2) == 0}
}

func cloneShadow(t *testing.T, src *ast.OrderedProgram) *ast.OrderedProgram {
	t.Helper()
	p := ast.NewOrderedProgram()
	for _, c := range src.Components {
		nc := &ast.Component{Name: c.Name, Rules: append([]*ast.Rule(nil), c.Rules...)}
		if err := p.AddComponent(nc); err != nil {
			t.Fatal(err)
		}
	}
	for _, ed := range src.Edges {
		if err := p.AddEdge(ed.Child, ed.Parent); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func applyShadowOp(p *ast.OrderedProgram, o diffOp) {
	same := func(r *ast.Rule) bool {
		return r.IsFact() && r.Head.Neg == o.lit.Neg && r.Head.Atom.Ground() && r.Head.Atom.Equal(o.lit.Atom)
	}
	c := p.Components[o.comp]
	if o.retract {
		kept := c.Rules[:0]
		for _, r := range c.Rules {
			if !same(r) {
				kept = append(kept, r)
			}
		}
		c.Rules = kept
		return
	}
	for _, r := range c.Rules {
		if same(r) {
			return
		}
	}
	c.AddRule(ast.Fact(o.lit))
}

func diffModelSet(t *testing.T, ms []*core.Model, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	sort.Strings(out)
	return strings.Join(out, " | ")
}

func TestUpdateDifferential(t *testing.T) {
	const comps, nconst = 3, 3
	programs := 200
	if testing.Short() {
		programs = 40
	}
	ctx := context.Background()
	for seed := 0; seed < programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			prog := gen.RandomOrderedDatalog(rng, comps, nconst)
			shadow := cloneShadow(t, prog)
			eng, err := core.NewEngineCtx(context.Background(), prog, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, len(prog.Components))
			for i, c := range prog.Components {
				names[i] = c.Name
			}
			var history []string
			var snap *core.Snapshot
			var fresh *core.Engine
			nops := 3 + rng.Intn(3)
			for op := 0; op < nops; op++ {
				o := randomOp(rng, comps, nconst)
				history = append(history, o.String())
				if o.retract {
					snap, err = eng.Retract(ctx, names[o.comp], []ast.Literal{o.lit})
				} else {
					snap, err = eng.Update(ctx, names[o.comp], []ast.Literal{o.lit})
				}
				if err != nil {
					t.Fatalf("after %v: %v", history, err)
				}
				applyShadowOp(shadow, o)
				fresh, err = core.NewEngineCtx(context.Background(), shadow, core.Config{})
				if err != nil {
					t.Fatalf("shadow rebuild after %v: %v", history, err)
				}
				for _, name := range names {
					got, err := snap.LeastModelCtx(context.Background(), name)
					if err != nil {
						t.Fatalf("after %v, comp %s: %v", history, name, err)
					}
					if same, rebuilt, err := snap.SameAsRebuild(name, got); err != nil || !same {
						t.Fatalf("after %v in %s: memoised model %s, rebuilt over the snapshot %s (err %v)",
							history, name, got, rebuilt, err)
					}
					want, err := fresh.LeastModelCtx(context.Background(), name)
					if err != nil {
						t.Fatalf("after %v, comp %s (fresh): %v", history, name, err)
					}
					if got.String() != want.String() {
						t.Fatalf("least model diverged after %v in %s:\nincremental: %s\nrebuild:     %s",
							history, name, got, want)
					}
				}
			}
			if snap == nil {
				return
			}
			// The enumeration semantics must agree too, on the final state.
			for _, name := range names {
				gotAF, errG := snap.AssumptionFreeModelsCtx(context.Background(), name, stable.Options{})
				wantAF, errW := fresh.AssumptionFreeModelsCtx(context.Background(), name, stable.Options{})
				if g, w := diffModelSet(t, gotAF, errG), diffModelSet(t, wantAF, errW); g != w {
					t.Fatalf("AF models diverged after %v in %s:\nincremental: %s\nrebuild:     %s",
						history, name, g, w)
				}
				gotSt, errG := snap.StableModelsCtx(context.Background(), name, stable.Options{})
				wantSt, errW := fresh.StableModelsCtx(context.Background(), name, stable.Options{})
				if g, w := diffModelSet(t, gotSt, errG), diffModelSet(t, wantSt, errW); g != w {
					t.Fatalf("stable models diverged after %v in %s:\nincremental: %s\nrebuild:     %s",
						history, name, g, w)
				}
			}
		})
	}
}
