// Benchmark harness: one benchmark per experiment in DESIGN.md §6.
//
// F1–F3/E5 regenerate the paper's figures end to end; B1–B6 are the
// engine-evaluation benchmarks (the paper has no performance tables, so
// these are the tables a systems venue would have demanded: fixpoint
// strategies, ordered-vs-classical overhead, grounding modes, stable-model
// search, and inheritance scaling). EXPERIMENTS.md maps every experiment id
// to the benchmark or test that runs it; TestPaperFigures asserts the
// figure rows.
package ordlog_test

import (
	"context"
	"fmt"
	"testing"

	ordlog "repro"
	"repro/internal/classical"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/stable"
	"repro/internal/transform"
	"repro/internal/workload"
)

// --- F1–F3, E5: the paper's figures as end-to-end benchmarks ---

const fig1Src = `
module birds {
  bird(penguin). bird(pigeon).
  fly(X) :- bird(X).
  -ground_animal(X) :- bird(X).
}
module arctic extends birds {
  ground_animal(penguin).
  -fly(X) :- ground_animal(X).
}
`

const fig2Src = `
module c3 { rich(mimmo). -poor(X) :- rich(X). }
module c2 { poor(mimmo). -rich(X) :- poor(X). }
module c1 extends c2, c3 { free_ticket(X) :- poor(X). }
`

const fig3Src = `
module expert2 { take_loan :- inflation(X), X > 11. }
module expert4 { -take_loan :- loan_rate(X), X > 14. }
module expert3 extends expert4 {
  take_loan :- inflation(X), loan_rate(Y), X > Y + 2.
}
module myself extends expert2, expert3 {
  inflation(19). loan_rate(16).
}
`

const ex5Src = `
module c2 { a. b. c. }
module c1 extends c2 {
  -a :- b, c.
  -b :- a.
  -b :- -b.
}
`

func benchLeast(b *testing.B, src, comp string) {
	b.Helper()
	prog, err := ordlog.ParseProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := ordlog.NewEngine(prog, ordlog.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.LeastModel(comp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1Penguin(b *testing.B)   { benchLeast(b, fig1Src, "arctic") }
func BenchmarkFig2Defeating(b *testing.B) { benchLeast(b, fig2Src, "c1") }
func BenchmarkFig3Loan(b *testing.B)      { benchLeast(b, fig3Src, "myself") }

func BenchmarkEx5Stable(b *testing.B) {
	prog, err := ordlog.ParseProgram(ex5Src)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := ordlog.NewEngine(prog, ordlog.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := eng.StableModels("c1", ordlog.EnumOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(ms) != 2 {
			b.Fatalf("want 2 stable models, got %d", len(ms))
		}
	}
}

// --- B1: least-model fixpoint, semi-naive vs naive ---

func ovView(b *testing.B, rules []*ordlog.Rule) *eval.View {
	b.Helper()
	ov, err := transform.OV("c", rules)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ground.Ground(ov, ground.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	v, err := eval.NewViewByName(g, "c")
	if err != nil {
		b.Fatal(err)
	}
	return v
}

func BenchmarkB1FixpointSemiNaive(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("anc_n=%d", n), func(b *testing.B) {
			v := ovView(b, workload.AncestorChain(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.LeastModel(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkB1FixpointNaive(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("anc_n=%d", n), func(b *testing.B) {
			v := ovView(b, workload.AncestorChain(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.LeastModelNaive(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B2: ordered OV vs classical baselines on ancestor ---

func BenchmarkB2OrderedOV(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("anc_n=%d", n), func(b *testing.B) {
			rules := workload.AncestorChain(n)
			ov, err := transform.OV("c", rules)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := ground.Ground(ov, ground.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				v, err := eval.NewViewByName(g, "c")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := v.LeastModel(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkB2ClassicalStratified(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("anc_n=%d", n), func(b *testing.B) {
			rules := workload.AncestorChain(n)
			strat, err := classical.Stratify(rules)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := classical.GroundRules(rules, classical.Options{})
				if err != nil {
					b.Fatal(err)
				}
				_ = p.StratifiedModel(strat)
			}
		})
	}
}

func BenchmarkB2ClassicalWellFounded(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("anc_n=%d", n), func(b *testing.B) {
			rules := workload.AncestorChain(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := classical.GroundRules(rules, classical.Options{})
				if err != nil {
					b.Fatal(err)
				}
				_ = p.WellFounded()
			}
		})
	}
}

// --- B3: grounding, smart vs full, on a mixed-domain EDB ---

// mixedDomain is an ancestor chain over n constants plus m unrelated
// item facts: relevance grounding ignores the items when instantiating the
// recursive rule, exhaustive grounding pays (n+m)^3.
func mixedDomain(n, m int) []*ordlog.Rule {
	rules := workload.AncestorChain(n)
	for j := 0; j < m; j++ {
		lit, err := ordlog.ParseLiteral(fmt.Sprintf("item(d%d)", j))
		if err != nil {
			panic(err)
		}
		rules = append(rules, &ordlog.Rule{Head: lit})
	}
	return rules
}

func BenchmarkB3GroundingSmart(b *testing.B) {
	for _, nm := range [][2]int{{8, 8}, {8, 24}, {16, 16}, {16, 48}} {
		b.Run(fmt.Sprintf("n=%d_m=%d", nm[0], nm[1]), func(b *testing.B) {
			ov, err := transform.OV("c", mixedDomain(nm[0], nm[1]))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ground.Ground(ov, ground.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkB3GroundingFull(b *testing.B) {
	for _, nm := range [][2]int{{8, 8}, {8, 24}, {16, 16}, {16, 48}} {
		b.Run(fmt.Sprintf("n=%d_m=%d", nm[0], nm[1]), func(b *testing.B) {
			ov, err := transform.OV("c", mixedDomain(nm[0], nm[1]))
			if err != nil {
				b.Fatal(err)
			}
			opts := ground.DefaultOptions()
			opts.Mode = ground.ModeFull
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ground.Ground(ov, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B4: stable-model enumeration on win–move ---

// The legs run the enumerator as any caller does: at n ≥ 10 it fans out
// over GOMAXPROCS workers. internal/stable's BenchmarkFanOutWinMoveCycle
// runs the same searches in-line and fanned out at one GOMAXPROCS.
func BenchmarkB4StableWinMoveCycle(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10, 12} {
		b.Run(fmt.Sprintf("cycle_n=%d", n), func(b *testing.B) {
			rules := workload.WinMove(workload.CycleEdges(n))
			ov, err := transform.OV("c", rules)
			if err != nil {
				b.Fatal(err)
			}
			g, err := ground.Ground(ov, ground.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			v, err := eval.NewViewByName(g, "c")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stable.StableModelsCtx(context.Background(), v, stable.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkB4StableClassicalGL(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10} {
		b.Run(fmt.Sprintf("cycle_n=%d", n), func(b *testing.B) {
			rules := workload.WinMove(workload.CycleEdges(n))
			p, err := classical.GroundRules(rules, classical.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.StableModelsTotal(classical.StableOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B5: well-founded vs ordered least model on win–move chains ---

func BenchmarkB5OrderedWinMoveChain(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("chain_n=%d", n), func(b *testing.B) {
			rules := workload.WinMove(workload.ChainEdges(n))
			ov, err := transform.OV("c", rules)
			if err != nil {
				b.Fatal(err)
			}
			g, err := ground.Ground(ov, ground.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			v, err := eval.NewViewByName(g, "c")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.LeastModel(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkB5WellFoundedWinMoveChain(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("chain_n=%d", n), func(b *testing.B) {
			p, err := classical.GroundRules(workload.WinMove(workload.ChainEdges(n)), classical.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = p.WellFounded()
			}
		})
	}
}

// --- B6: inheritance hierarchies with exceptions ---

func BenchmarkB6Inheritance(b *testing.B) {
	for _, cfg := range [][3]int{{2, 4, 8}, {4, 4, 8}, {8, 4, 8}, {8, 8, 16}} {
		depth, props, members := cfg[0], cfg[1], cfg[2]
		b.Run(fmt.Sprintf("depth=%d_props=%d_members=%d", depth, props, members), func(b *testing.B) {
			p := workload.Inheritance(depth, props, members)
			g, err := ground.Ground(p, ground.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			v, err := eval.NewViewByName(g, "lvl0")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.LeastModel(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
