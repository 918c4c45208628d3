package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/wal"
)

// Count-driven compaction must bound the carried history under toggle
// churn: asserting and retracting the same fact forever collapses to at
// most one event per fact, however many updates ran.
func TestCompactEveryBoundsHistory(t *testing.T) {
	ctx := context.Background()
	eng, err := core.NewEngineCtx(ctx, tenantProgram(t, "a"), core.Config{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	var snap *core.Snapshot
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			snap, err = eng.Update(ctx, "main", []ast.Literal{lit(t, "p(churn)")})
		} else {
			snap, err = eng.Retract(ctx, "main", []ast.Literal{lit(t, "p(churn)")})
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// 40 toggles over one fact: an uncompacted log would carry 40 events.
	// With CompactEvery=4 at most the last few updates since the newest
	// compaction survive uncollapsed.
	if n := snap.NumLogEvents(); n >= 8 {
		t.Fatalf("carried history grew to %d events under toggle churn (compaction not bounding it)", n)
	}
	if n := snap.NumDeadRules(); n >= 8 {
		t.Fatalf("dead set grew to %d under toggle churn", n)
	}
}

// Ratio-driven compaction: with a tiny threshold, any retract that kills
// instances triggers a compacting publish, so the published snapshot's
// dead set is always empty.
func TestCompactRatioDrainsDeadSet(t *testing.T) {
	ctx := context.Background()
	eng, err := core.NewEngineCtx(ctx, tenantProgram(t, "a", "b", "c"), core.Config{CompactRatio: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"p(a)", "p(b)", "p(c)"} {
		snap, err := eng.Retract(ctx, "main", []ast.Literal{lit(t, f)})
		if err != nil {
			t.Fatal(err)
		}
		if n := snap.NumDeadRules(); n != 0 {
			t.Fatalf("retract %s published %d dead rules despite ratio trigger", f, n)
		}
	}
	m, err := eng.Current().LeastModelCtx(ctx, "main")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewEngineCtx(ctx, tenantProgram(t), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wm, err := want.Current().LeastModelCtx(ctx, "main")
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != wm.String() {
		t.Fatalf("after retracting everything: %s, want %s", m, wm)
	}
}

// Explicit Compact republishes the same version — logically nothing
// changed — and afterwards the in-memory history no longer reconstructs
// older versions: on a memory-only engine they are evicted, while the
// current version still reads fine.
func TestCompactSameVersionAndMemoryFloor(t *testing.T) {
	ctx := context.Background()
	eng, err := core.NewEngineCtx(ctx, tenantProgram(t, "a"), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Update(ctx, "main", []ast.Literal{lit(t, fmt.Sprintf("p(x%d)", i))}); err != nil {
			t.Fatal(err)
		}
	}
	before := eng.Current()
	wantModel := leastStr(t, before)
	// Older versions reconstruct from memory before the compaction…
	if _, err := eng.AsOfCtx(ctx, 1); err != nil {
		t.Fatalf("AsOf(1) before compact: %v", err)
	}
	snap, err := eng.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != before.Version() {
		t.Fatalf("compaction moved the version: v%d -> v%d", before.Version(), snap.Version())
	}
	if got := leastStr(t, snap); got != wantModel {
		t.Fatalf("compaction changed the model:\n%s\nwant:\n%s", got, wantModel)
	}
	// …and are evicted after it (no WAL to fall back to). AsOf(1) was
	// cached by the earlier read, so probe v2, which never materialised.
	if _, err := eng.AsOfCtx(ctx, 2); !errors.Is(err, core.ErrVersionEvicted) {
		t.Fatalf("AsOf(2) after compact: got %v, want ErrVersionEvicted", err)
	}
	if cur, err := eng.AsOfCtx(ctx, snap.Version()); err != nil || cur.Version() != snap.Version() {
		t.Fatalf("AsOf(current) after compact: %v", err)
	}
	// Updates continue normally from a compacted snapshot.
	next, err := eng.Update(ctx, "main", []ast.Literal{lit(t, "p(after)")})
	if err != nil {
		t.Fatal(err)
	}
	if next.Version() != snap.Version()+1 {
		t.Fatalf("post-compact update published v%d, want v%d", next.Version(), snap.Version()+1)
	}
}

// The retention cross-feature regression: once KeepCheckpoints prunes the
// checkpoints (and the segments they cover) that a version's replay
// needs, AsOf must report ErrVersionEvicted — never a partial replay —
// while versions inside the retained window still reconstruct.
func TestAsOfEvictedByRetention(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	eng, err := core.NewEngineCtx(ctx, tenantProgram(t, "a"), core.Config{},
		core.WithDurability(dir), core.WithDurableName("tn"),
		core.WithCheckpointEvery(1), core.WithSync(wal.SyncAlways),
		core.WithRotateRecords(1), core.WithKeepCheckpoints(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want := map[uint64]string{}
	var last uint64
	for i := 0; i < 6; i++ {
		snap, err := eng.Update(ctx, "main", []ast.Literal{lit(t, fmt.Sprintf("p(x%d)", i))})
		if err != nil {
			t.Fatal(err)
		}
		last = snap.Version()
		want[last] = leastStr(t, snap)
	}
	// Compact so the in-memory history cannot mask the pruned WAL: reads
	// below the floor must go to disk and meet the retention horizon.
	if _, err := eng.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AsOfCtx(ctx, 1); !errors.Is(err, core.ErrVersionEvicted) {
		t.Fatalf("AsOf(1) with pruned history: got %v, want ErrVersionEvicted", err)
	}
	// The newest retained checkpoint covers the recent versions.
	for v := last - 1; v <= last; v++ {
		snap, err := eng.AsOfCtx(ctx, v)
		if err != nil {
			t.Fatalf("AsOf(%d) inside the retained window: %v", v, err)
		}
		if got := leastStr(t, snap); got != want[v] {
			t.Fatalf("AsOf(%d) diverged:\n%s\nwant:\n%s", v, got, want[v])
		}
	}
	// Retention actually pruned, and what is left verifies end to end.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := wal.VerifyDir(dir)
	if err != nil {
		t.Fatalf("verify after retention pruning: %v", err)
	}
	if res.FirstSeq == 1 {
		t.Fatal("retention never pruned a segment (FirstSeq still 1)")
	}
	if res.Checkpoints > 2 {
		t.Fatalf("%d checkpoints retained, want <= 2", res.Checkpoints)
	}
}

// Rotation + crash + recovery: a durable engine rotating every record
// must recover from a torn tail in its final segment exactly like the
// single-file layout does, and keep writing on the same chain.
func TestRotatedRecoverRoundtrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	eng, err := core.NewEngineCtx(ctx, tenantProgram(t, "a"), core.Config{},
		core.WithDurability(dir), core.WithDurableName("tn"),
		core.WithCheckpointEvery(2), core.WithSync(wal.SyncAlways),
		core.WithRotateRecords(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := eng.Update(ctx, "main", []ast.Literal{lit(t, fmt.Sprintf("p(x%d)", i))}); err != nil {
			t.Fatal(err)
		}
	}
	wantModel := leastStr(t, eng.Current())
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := core.Recover(ctx, dir, core.Config{}, core.WithSync(wal.SyncAlways), core.WithRotateRecords(2))
	if err != nil {
		t.Fatal(err)
	}
	if v := rec.Current().Version(); v != 5 {
		t.Fatalf("recovered v%d, want 5", v)
	}
	if got := leastStr(t, rec.Current()); got != wantModel {
		t.Fatalf("recovered model diverged:\n%s\nwant:\n%s", got, wantModel)
	}
	// Keep writing: the chain continues across the recovered segment tip.
	if snap, err := rec.Update(ctx, "main", []ast.Literal{lit(t, "p(after)")}); err != nil || snap.Version() != 6 {
		t.Fatalf("post-recovery update: v%v err=%v", snap.Version(), err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := wal.VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments < 3 {
		t.Fatalf("rotation produced only %d segments", res.Segments)
	}
	if res.Records != 6 || res.Version != 6 {
		t.Fatalf("verify after rotated recovery = %+v", res)
	}
}
