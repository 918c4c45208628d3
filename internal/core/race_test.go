// Race tests for the Engine's concurrency contract: one Engine shared by
// many goroutines issuing mixed LeastModelCtx / QueryCtx / ProveCtx / StableModelsCtx
// calls against overlapping components must produce exactly the results a
// sequential engine produces, and must be clean under `go test -race`.
package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle/gen"
	"repro/internal/oracle/parsetest"
	"repro/internal/parser"
	"repro/internal/stable"
)

const raceSrc = `
module base {
  bird(penguin). bird(pigeon). bird(tweety).
  fly(X) :- bird(X).
  -ground_animal(X) :- bird(X).
  nests(X) :- fly(X).
}
module arctic extends base {
  ground_animal(penguin).
  -fly(X) :- ground_animal(X).
}
module injured extends arctic {
  ground_animal(tweety).
}
`

// TestEngineSharedRace: 16 goroutines hammer one Engine with a mix of
// cached and uncached operations across the three overlapping components.
// Every goroutine checks its own answers against sequentially precomputed
// expectations, so the test detects both data races (via -race) and
// cross-talk between the per-component caches.
func TestEngineSharedRace(t *testing.T) {
	comps := []string{"base", "arctic", "injured"}

	// Sequential reference engine: same program, one goroutine.
	ref := engineOf(t, raceSrc)
	wantLeast := make(map[string]string)
	wantStable := make(map[string]int)
	wantFly := make(map[string]int)
	flyQ, err := parser.Parse("?- fly(X).")
	if err != nil {
		t.Fatal(err)
	}
	q := flyQ.Queries[0]
	for _, c := range comps {
		m, err := ref.LeastModelCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		wantLeast[c] = m.String()
		wantFly[c] = len(m.Query(q))
		ms, err := ref.StableModelsCtx(context.Background(), c, stable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantStable[c] = len(ms)
	}
	penguinFlies, err := ref.ProveCtx(context.Background(), "base", parsetest.MustParseLiteral("fly(penguin)"))
	if err != nil {
		t.Fatal(err)
	}
	if !penguinFlies {
		t.Fatal("reference: fly(penguin) should hold in base")
	}

	shared := engineOf(t, raceSrc)
	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			comp := comps[g%len(comps)]
			for it := 0; it < iters; it++ {
				switch (g + it) % 4 {
				case 0:
					m, err := shared.LeastModelCtx(context.Background(), comp)
					if err != nil {
						errCh <- fmt.Errorf("g%d LeastModel(%s): %v", g, comp, err)
						return
					}
					if m.String() != wantLeast[comp] {
						errCh <- fmt.Errorf("g%d LeastModel(%s) = %s, want %s", g, comp, m, wantLeast[comp])
						return
					}
				case 1:
					m, err := shared.LeastModelCtx(context.Background(), comp)
					if err != nil {
						errCh <- fmt.Errorf("g%d LeastModel(%s): %v", g, comp, err)
						return
					}
					if got := len(m.Query(q)); got != wantFly[comp] {
						errCh <- fmt.Errorf("g%d Query(fly) in %s = %d answers, want %d", g, comp, got, wantFly[comp])
						return
					}
				case 2:
					ms, err := shared.StableModelsCtx(context.Background(), comp, stable.Options{})
					if err != nil {
						errCh <- fmt.Errorf("g%d StableModels(%s): %v", g, comp, err)
						return
					}
					if len(ms) != wantStable[comp] {
						errCh <- fmt.Errorf("g%d StableModels(%s) = %d, want %d", g, comp, len(ms), wantStable[comp])
						return
					}
				case 3:
					ok, err := shared.ProveCtx(context.Background(), comp, parsetest.MustParseLiteral("bird(penguin)"))
					if err != nil {
						errCh <- fmt.Errorf("g%d Prove(%s): %v", g, comp, err)
						return
					}
					if !ok {
						errCh <- fmt.Errorf("g%d Prove(bird(penguin)) in %s = false", g, comp)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestEngineBatchRace drives the batched front ends on a shared engine
// over an inheritance hierarchy: QueryBatch across components and a
// LeastModelCtx per component concurrently, checked against sequential
// answers.
func TestEngineBatchRace(t *testing.T) {
	const depth = 5
	prog := gen.Inheritance(depth, 4, 6)
	shared, err := core.NewEngineCtx(context.Background(), prog, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewEngineCtx(context.Background(), prog, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := parser.Parse("?- p0(X).")
	if err != nil {
		t.Fatal(err)
	}
	q := parsed.Queries[0]

	var reqs []core.QueryRequest
	var comps []string
	for rep := 0; rep < 8; rep++ {
		for lvl := 0; lvl < depth; lvl++ {
			name := fmt.Sprintf("lvl%d", lvl)
			reqs = append(reqs, core.QueryRequest{Comp: name, Query: q})
			comps = append(comps, name)
		}
	}
	want := make([]int, len(reqs))
	for i, r := range reqs {
		m, err := ref.LeastModelCtx(context.Background(), r.Comp)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = len(m.Query(r.Query))
	}

	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			results := shared.QueryBatchCtx(context.Background(), reqs)
			for i, r := range results {
				if r.Err != nil {
					t.Errorf("QueryBatch[%d]: %v", i, r.Err)
					return
				}
				if len(r.Bindings) != want[i] {
					t.Errorf("QueryBatch[%d] = %d bindings, want %d", i, len(r.Bindings), want[i])
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			var inner sync.WaitGroup
			for i, comp := range comps {
				inner.Add(1)
				go func(i int, comp string) {
					defer inner.Done()
					m, err := shared.LeastModelCtx(context.Background(), comp)
					if err != nil {
						t.Errorf("LeastModelCtx(%s): %v", comp, err)
						return
					}
					if got := len(m.Query(q)); got != want[i] {
						t.Errorf("LeastModelCtx(%s) answers %d bindings, want %d", comp, got, want[i])
					}
				}(i, comp)
			}
			inner.Wait()
		}()
	}
	wg.Wait()
}
