package proof

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/interrupt"
	"repro/internal/oracle/gen"
	"repro/internal/parser"
)

// fullStages is stagesOf without its early stop: every literal of lfp(V)
// with the V round it enters in.
func fullStages(ctx context.Context, v *eval.View) (map[interp.Lit]int, error) {
	stages := make(map[interp.Lit]int)
	cur := v.NewInterp()
	for round := 1; ; round++ {
		if err := interrupt.Check(ctx, "proof: stage computation"); err != nil {
			return nil, err
		}
		next, err := v.VOnce(cur)
		if err != nil {
			return nil, err
		}
		changed := false
		for _, l := range next.Lits() {
			if _, ok := stages[l]; !ok {
				stages[l] = round
				changed = true
			}
		}
		if !changed {
			return stages, nil
		}
		next.UnionWith(cur)
		cur = next
	}
}

// readsText is the serving benchmark's read tenant at (n, m): two chains
// closed transitively, with an exception component.
func readsText(n, m int) string {
	var b strings.Builder
	b.WriteString("module base {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "edge(c%d, c%d).\n", i, i+1)
	}
	for i := 0; i < m; i++ {
		fmt.Fprintf(&b, "hop(h%d, h%d).\n", i, i+1)
	}
	b.WriteString("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\n")
	b.WriteString("reach(X, Y) :- hop(X, Y).\nreach(X, Z) :- hop(X, Y), reach(Y, Z).\n}\n")
	fmt.Fprintf(&b, "module exc extends base {\n-path(X, c%d) :- edge(X, c%d).\n-reach(X, h%d) :- hop(X, h%d).\n}\n", n/2, n/2, m/2, m/2)
	return b.String()
}

// An explanation read off the stages up to its goal's is the one read off
// every stage of the fixpoint, rendered byte for byte, for every literal
// of every component's least model over the corpus and the read tenant.
func TestTruncatedStagesSameTrees(t *testing.T) {
	ctx := context.Background()
	var progs []*ground.Program
	for seed := int64(0); seed < 40; seed++ {
		g, err := ground.GroundCtx(ctx, gen.RandomOrderedDatalog(rand.New(rand.NewSource(seed)), 3, 3), ground.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, g)
	}
	p, err := parser.ParseProgram(readsText(24, 12))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ground.GroundCtx(ctx, p, ground.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, g)
	for i, g := range progs {
		for c := range g.Src.Components {
			v := eval.NewView(g, c)
			full, err := fullStages(ctx, v)
			if err != nil {
				t.Fatal(err)
			}
			for l := range full {
				want, ok, err := explainFrom(v, l, full)
				if err != nil || !ok {
					t.Fatalf("program %d: %s from full stages: ok %v, err %v", i, g.Tab.LitString(l), ok, err)
				}
				got, ok, err := ExplainCtx(ctx, v, l)
				if err != nil || !ok {
					t.Fatalf("program %d: %s: ok %v, err %v", i, g.Tab.LitString(l), ok, err)
				}
				if got.Render(v) != want.Render(v) {
					t.Fatalf("program %d, %s: truncated stages explain\n%s\nfull stages explain\n%s",
						i, g.Tab.LitString(l), got.Render(v), want.Render(v))
				}
			}
		}
	}
}
