// The enumerator's fan-out pinned to its in-line DFS: forced on at 2 and
// 8 workers with no size threshold, every search must return the in-line
// list element by element — with no limits, under MaxModels, and when the
// leaf budget runs out — and count the same stable.leaves and
// stable.models.
package stable_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/oracle/gen"
	"repro/internal/parser"
	"repro/internal/stable"
)

// enumRun is one enumeration's outcome: the models in the order returned,
// the error, and the stable.leaves and stable.models it counted.
type enumRun struct {
	models        []string
	err           error
	leaves, found int64
}

var (
	leavesCounter = obs.Default().Counter("stable.leaves")
	modelsCounter = obs.Default().Counter("stable.models")
	fanOutCounter = obs.Default().Counter("stable.fanouts")
)

// enumerate runs one search with the fan-out forced: workers 1 runs it
// in-line, more split it over that many workers whatever its size. The
// stable family is enumerated when maximal is set, the assumption-free one
// otherwise.
func enumerate(v *eval.View, opts stable.Options, workers int, maximal bool) enumRun {
	defer stable.SetFanOut(workers, 0)()
	l0, m0 := leavesCounter.Value(), modelsCounter.Value()
	f := stable.AssumptionFreeModelsCtx
	if maximal {
		f = stable.StableModelsCtx
	}
	ms, err := f(context.Background(), v, opts)
	r := enumRun{err: err, leaves: leavesCounter.Value() - l0, found: modelsCounter.Value() - m0}
	for _, m := range ms {
		r.models = append(r.models, m.String())
	}
	return r
}

// sameRun fails the test unless two runs agree as ordered lists, on the
// error sentinel and on the counters.
func sameRun(t *testing.T, what string, want, got enumRun) {
	t.Helper()
	if strings.Join(got.models, ";") != strings.Join(want.models, ";") {
		t.Fatalf("%s: models differ\n got %v\nwant %v", what, got.models, want.models)
	}
	if errors.Is(got.err, stable.ErrBudget) != errors.Is(want.err, stable.ErrBudget) ||
		(got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: err = %v, want %v", what, got.err, want.err)
	}
	if got.leaves != want.leaves || got.found != want.found {
		t.Fatalf("%s: stable.leaves %d, stable.models %d; want %d, %d",
			what, got.leaves, got.found, want.leaves, want.found)
	}
}

// checkOrderedIdentity pins the fan-out at 2 and 8 workers to the in-line
// search on one view: the complete assumption-free and stable lists, the
// first 1, 2 and 3 models under MaxModels, and the partial list a leaf
// budget below the complete search's leaf count leaves alongside
// ErrBudget.
func checkOrderedIdentity(t *testing.T, name string, v *eval.View) {
	t.Helper()
	full := enumerate(v, stable.Options{}, 1, false)
	if full.err != nil {
		t.Fatalf("%s: in-line: %v", name, full.err)
	}
	var budgets []int
	for _, b := range []int{1, int(full.leaves) / 2, int(full.leaves) - 1} {
		if b >= 1 && b < int(full.leaves) && (len(budgets) == 0 || budgets[len(budgets)-1] != b) {
			budgets = append(budgets, b)
		}
	}
	for _, w := range []int{2, 8} {
		at := func(leg string) string { return fmt.Sprintf("%s workers=%d %s", name, w, leg) }
		sameRun(t, at("af"), full, enumerate(v, stable.Options{}, w, false))
		sameRun(t, at("stable"), enumerate(v, stable.Options{}, 1, true), enumerate(v, stable.Options{}, w, true))
		for k := 1; k <= 3; k++ {
			opts := stable.Options{MaxModels: k}
			want := enumerate(v, opts, 1, false)
			if n := min(k, len(full.models)); len(want.models) != n {
				t.Fatalf("%s: in-line kept %d models, want %d", at(fmt.Sprintf("MaxModels=%d", k)), len(want.models), n)
			}
			sameRun(t, at(fmt.Sprintf("MaxModels=%d", k)), want, enumerate(v, opts, w, false))
		}
		for _, b := range budgets {
			opts := stable.Options{MaxLeaves: b}
			want := enumerate(v, opts, 1, false)
			if !errors.Is(want.err, stable.ErrBudget) {
				t.Fatalf("%s: in-line err = %v, want ErrBudget", at(fmt.Sprintf("MaxLeaves=%d", b)), want.err)
			}
			sameRun(t, at(fmt.Sprintf("MaxLeaves=%d", b)), want, enumerate(v, opts, w, false))
		}
	}
}

// TestParallelMatchesSequential: ordered identity over the random ordered
// corpus, every component.
func TestParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.RandomOrdered(rng, 1+rng.Intn(3), gen.RandomConfig{
			Atoms: 4 + rng.Intn(3), Rules: 8 + rng.Intn(5), MaxBody: 2, NegHeads: true, NegBody: true,
		})
		g, err := ground.GroundCtx(context.Background(), p, ground.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for ci := range p.Components {
			checkOrderedIdentity(t, fmt.Sprintf("seed %d comp %d", seed, ci), eval.NewView(g, ci))
		}
	}
}

// TestParallelWinMove: ordered identity on OV(win-move) cycles up to
// n = 12, the size B4 measures the fan-out at.
func TestParallelWinMove(t *testing.T) {
	for n := 2; n <= 12; n++ {
		checkOrderedIdentity(t, fmt.Sprintf("cycle %d", n), winMoveView(t, n))
	}
}

// TestStableParallelWorkerSweep: ordered identity on the paper's figures
// and worked examples — every testdata program and Example 5 — in every
// component.
func TestStableParallelWorkerSweep(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.olp"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	srcs := map[string]string{"example5": example5Src}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(b)
	}
	for name, src := range srcs {
		res, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := ground.GroundCtx(context.Background(), res.Program, ground.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for ci, c := range res.Program.Components {
			checkOrderedIdentity(t, name+" "+c.Name, eval.NewView(g, ci))
		}
	}
}

// TestStableParallelBudgetExhaustion: at every leaf budget below the
// complete search's leaf count, the fan-out returns the in-line partial
// list with ErrBudget, and at the leaf count itself the complete list
// with no error.
func TestStableParallelBudgetExhaustion(t *testing.T) {
	for _, n := range []int{6, 8} {
		v := winMoveView(t, n)
		full := enumerate(v, stable.Options{}, 1, false)
		for b := 1; b <= int(full.leaves); b++ {
			opts := stable.Options{MaxLeaves: b}
			want := enumerate(v, opts, 1, false)
			if (b < int(full.leaves)) != errors.Is(want.err, stable.ErrBudget) {
				t.Fatalf("cycle %d MaxLeaves=%d: in-line err = %v", n, b, want.err)
			}
			for _, w := range []int{2, 8} {
				sameRun(t, fmt.Sprintf("cycle %d MaxLeaves=%d workers=%d", n, b, w), want, enumerate(v, opts, w, false))
			}
		}
	}
}

// TestParallelSingleWorkerFallsBack: the fan-out is chosen from what the
// process observes, with no option. At GOMAXPROCS=1 no search splits; at
// GOMAXPROCS=2 the n ≤ 8 win-move searches run in-line and n = 12 splits,
// returning the in-line list.
func TestParallelSingleWorkerFallsBack(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	search := func(n int) (models []*interp.Interp, fanned bool) {
		t.Helper()
		f0 := fanOutCounter.Value()
		ms, err := stable.AssumptionFreeModelsCtx(context.Background(), winMoveView(t, n), stable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ms, fanOutCounter.Value() > f0
	}
	inline := map[int][]*interp.Interp{}
	for _, n := range []int{4, 8, 12} {
		ms, fanned := search(n)
		if fanned {
			t.Fatalf("GOMAXPROCS=1, cycle %d: the search fanned out", n)
		}
		inline[n] = ms
	}
	runtime.GOMAXPROCS(2)
	for _, n := range []int{4, 8, 12} {
		ms, fanned := search(n)
		if fanned != (n == 12) {
			t.Fatalf("GOMAXPROCS=2, cycle %d: fanned out = %v, want %v", n, fanned, n == 12)
		}
		if len(ms) != len(inline[n]) {
			t.Fatalf("GOMAXPROCS=2, cycle %d: %d models, in-line %d", n, len(ms), len(inline[n]))
		}
		for i := range ms {
			if !ms[i].Equal(inline[n][i]) {
				t.Fatalf("GOMAXPROCS=2, cycle %d: model %d is %v, in-line %v", n, i, ms[i], inline[n][i])
			}
		}
	}
}

// TestFanOutAllocationBounded: a split search stores each prefix task by
// its decided literals only. On 2 000 branch atoms under MaxModels = 1 —
// p(i) and -p(i) asserted side by side, so every true or false branch is
// doomed and the one model is the all-undefined leaf of the last task —
// the fan-out allocates at most 2 KiB per branch atom more than the
// in-line search: a task list that grows with the square of the atom
// count would allocate tens of MiB here.
func TestFanOutAllocationBounded(t *testing.T) {
	const n = 2000
	var src strings.Builder
	src.WriteString("module c {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "  p(%d). -p(%d).\n", i, i)
	}
	src.WriteString("}\n")
	res, err := parser.Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	g, err := ground.GroundCtx(context.Background(), res.Program, ground.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := eval.NewView(g, 0)
	alloc := func(workers int) uint64 {
		defer stable.SetFanOut(workers, 0)()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ms, err := stable.AssumptionFreeModelsCtx(context.Background(), v, stable.Options{MaxModels: 1})
		runtime.ReadMemStats(&m1)
		if err != nil || len(ms) != 1 || ms[0].Len() != 0 {
			t.Fatalf("workers=%d: %d models, err %v; want the empty model", workers, len(ms), err)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	inline := alloc(1)
	t.Logf("in-line %d KiB", inline>>10)
	for _, w := range []int{2, 8} {
		fanned := alloc(w)
		t.Logf("workers=%d %d KiB", w, fanned>>10)
		if fanned > inline+2<<10*n {
			t.Fatalf("workers=%d: the fan-out allocated %d KiB, the in-line search %d KiB; bound %d KiB more",
				w, fanned>>10, inline>>10, 2*n)
		}
	}
}
