package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/oracle/gen"
	"repro/internal/wal"
)

// TestChurnFootprintBounded drives a durable engine configured the way a
// long-lived tenant is — segment rotation, checkpoint retention, snapshot
// compaction — through Zipf-skewed toggle churn and asserts that what a
// leak would grow stays bounded: the snapshot's dead set and carried
// history, the heap after a GC, and the WAL directory. Each op toggles
// bad(kN) in exc for a Zipf(1.2)-drawn key over a 500-key window, so every
// record is a genuine state change and hot keys flap constantly.
//
// Two sets of bounds apply. The coarse ones are about 10× above the steady
// state; at this op count they miss a history that never collapses. The
// cadence bounds follow from the configuration: a compaction at least
// every CompactEvery updates collapses the history to one event per key
// touched, so it never exceeds keys + CompactEvery events, and retention
// keeps KeepCheckpoints checkpoints and the segments their records span.
func TestChurnFootprintBounded(t *testing.T) {
	const (
		ops             = 3000
		keys            = 500
		kb              = 200
		checkpointEvery = 500
		rotateRecords   = 1000
		keepCheckpoints = 3
		compactEvery    = 256
	)
	ctx := context.Background()
	dir := t.TempDir()
	eng, err := NewEngineCtx(context.Background(), mustProgram(t, gen.PolicySource(kb)), Config{CompactEvery: compactEvery},
		WithDurability(dir), WithDurableName("churn"), WithSync(wal.SyncInterval),
		WithCheckpointEvery(checkpointEvery), WithRotateRecords(rotateRecords),
		WithKeepCheckpoints(keepCheckpoints))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	zipf := rand.NewZipf(rand.New(rand.NewSource(14)), 1.2, 1, keys-1)
	live := make([]bool, keys)
	facts := make([][]ast.Literal, keys)
	for k := range facts {
		facts[k] = []ast.Literal{ast.Pos(ast.Atom{Pred: "bad", Args: []ast.Term{ast.Sym(fmt.Sprintf("k%d", k))}})}
	}
	before := obs.Default().Snap()
	maxLog := 0
	for i := 0; i < ops; i++ {
		k := int(zipf.Uint64())
		write := eng.Update
		if live[k] {
			write = eng.Retract
		}
		snap, err := write(ctx, "exc", facts[k])
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		live[k] = !live[k]
		maxLog = max(maxLog, snap.NumLogEvents())
	}
	d := obs.Default().Snap().Diff(before)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := eng.Current()
	var walBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			walBytes += info.Size()
		}
	}
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := wal.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	cps := wd.Checkpoints
	incr, reground, compactions := d["core.updates.incremental"], d["core.updates.reground"], d["update.compact.runs"]
	t.Logf("v%d: dead %d, log events %d (max %d), heap %d KiB, WAL %d KiB in %d segments + %d checkpoints; %d incremental, %d reground, %d compactions",
		snap.Version(), snap.NumDeadRules(), snap.NumLogEvents(), maxLog, ms.HeapAlloc>>10,
		walBytes>>10, len(segs), len(cps), incr, reground, compactions)

	// The coarse leak bounds.
	if v := snap.Version(); v != ops {
		t.Errorf("version %d, want %d", v, ops)
	}
	if n := snap.NumDeadRules(); n >= 1000 {
		t.Errorf("dead set %d, want < 1000", n)
	}
	if n := snap.NumLogEvents(); n >= 10000 {
		t.Errorf("log events %d, want < 10000", n)
	}
	if ms.HeapAlloc >= 200<<20 {
		t.Errorf("heap after GC %d MiB, want < 200 MiB", ms.HeapAlloc>>20)
	}
	if walBytes >= 16<<20 {
		t.Errorf("WAL directory %d KiB, want < 16 MiB", walBytes>>10)
	}
	if len(segs) >= 50 {
		t.Errorf("%d WAL segments, want < 50", len(segs))
	}
	if compactions <= 0 {
		t.Errorf("%d compactions, want > 0", compactions)
	}
	if incr+reground != ops {
		t.Errorf("%d incremental + %d reground updates, want %d", incr, reground, ops)
	}

	// The cadence bounds.
	if compactions < ops/compactEvery {
		t.Errorf("%d compactions, want >= ops/CompactEvery = %d", compactions, ops/compactEvery)
	}
	if maxLog > keys+compactEvery {
		t.Errorf("history peaked at %d events, want <= keys + CompactEvery = %d", maxLog, keys+compactEvery)
	}
	if len(cps) > keepCheckpoints {
		t.Errorf("%d checkpoints retained, want <= KeepCheckpoints = %d", len(cps), keepCheckpoints)
	}
	if want := keepCheckpoints*checkpointEvery/rotateRecords + 2; len(segs) > want {
		t.Errorf("%d WAL segments, want <= KeepCheckpoints × CheckpointEvery / RotateRecords + 2 = %d", len(segs), want)
	}
}
