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

func TestDurabilityConfigValidation(t *testing.T) {
	prog := tenantProgram(t, "a")
	cases := []struct {
		name  string
		opts  []core.Option
		field string
	}{
		{"checkpoint without durability", []core.Option{core.WithCheckpointEvery(4)}, "Durability.CheckpointEvery"},
		{"sync without durability", []core.Option{core.WithSync(wal.SyncAlways)}, "Durability.Sync"},
		{"name without durability", []core.Option{core.WithDurableName("x")}, "Durability.Name"},
		{"non-positive checkpoint interval", []core.Option{core.WithDurability(t.TempDir()), core.WithCheckpointEvery(-1)}, "Durability.CheckpointEvery"},
		{"unknown sync policy", []core.Option{core.WithDurability(t.TempDir()), core.WithSync(wal.SyncPolicy(7))}, "Durability.Sync"},
		{"unusable directory", []core.Option{core.WithDurability("/dev/null/sub")}, "Durability.Dir"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := core.NewEngineCtx(context.Background(), prog, core.Config{}, c.opts...)
			var ce *core.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("got %v, want *ConfigError", err)
			}
			if ce.Field != c.field {
				t.Fatalf("rejected field %q, want %q", ce.Field, c.field)
			}
		})
	}
	// The happy path: WithDurability alone presets the checkpoint cadence.
	eng, err := core.NewEngineCtx(context.Background(), prog, core.Config{}, core.WithDurability(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !eng.Durable() {
		t.Fatal("engine with WithDurability not durable")
	}
}

// durableEngine builds a durable engine over tenantProgram in a fresh
// temp dir with a tight checkpoint cadence.
func durableEngine(t *testing.T, every int) (*core.Engine, string) {
	t.Helper()
	dir := t.TempDir()
	eng, err := core.NewEngineCtx(context.Background(), tenantProgram(t, "a"), core.Config{},
		core.WithDurability(dir), core.WithDurableName("tn"),
		core.WithCheckpointEvery(every), core.WithSync(wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	return eng, dir
}

func leastStr(t *testing.T, s *core.Snapshot) string {
	t.Helper()
	m, err := s.LeastModelCtx(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	return m.String()
}

func TestRecoverRoundtrip(t *testing.T) {
	ctx := context.Background()
	eng, dir := durableEngine(t, 2)
	var wantByVersion []string // least model per published version
	wantByVersion = append(wantByVersion, leastStr(t, eng.Current()))
	for i := 0; i < 5; i++ {
		snap, err := eng.Update(ctx, "main", []ast.Literal{lit(t, fmt.Sprintf("p(x%d)", i))})
		if err != nil {
			t.Fatal(err)
		}
		wantByVersion = append(wantByVersion, leastStr(t, snap))
	}
	if _, err := eng.Retract(ctx, "main", []ast.Literal{lit(t, "p(x0)")}); err != nil {
		t.Fatal(err)
	}
	wantByVersion = append(wantByVersion, leastStr(t, eng.Current()))
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed log rejects further updates; reads still work.
	if _, err := eng.Update(ctx, "main", []ast.Literal{lit(t, "p(zz)")}); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("update after Close: got %v, want wal.ErrClosed", err)
	}
	if got := leastStr(t, eng.Current()); got != wantByVersion[6] {
		t.Fatal("read after Close diverged")
	}

	rec, err := core.Recover(ctx, dir, core.Config{}, core.WithSync(wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.DurableName() != "tn" {
		t.Fatalf("recovered name %q, want tn", rec.DurableName())
	}
	if v := rec.Current().Version(); v != 6 {
		t.Fatalf("recovered version %d, want 6", v)
	}
	if got := leastStr(t, rec.Current()); got != wantByVersion[6] {
		t.Fatalf("recovered least model diverged:\n%s\nwant:\n%s", got, wantByVersion[6])
	}
	// The recovered engine continues the chain: more updates, then a strict
	// end-to-end verification of the directory.
	if snap, err := rec.Update(ctx, "main", []ast.Literal{lit(t, "p(after)")}); err != nil || snap.Version() != 7 {
		t.Fatalf("post-recovery update: v%v err=%v", snap.Version(), err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := wal.VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "tn" || res.Records != 7 || res.Version != 7 {
		t.Fatalf("verify after recovery = %+v", res)
	}
	// Conflicting WithDurableName is a config error, not silent adoption.
	_, err = core.Recover(ctx, dir, core.Config{}, core.WithDurableName("other"))
	var ce *core.ConfigError
	if !errors.As(err, &ce) || ce.Field != "Durability.Name" {
		t.Fatalf("recover with conflicting name: got %v", err)
	}
}

func TestNewEngineResetsHistory(t *testing.T) {
	ctx := context.Background()
	eng, dir := durableEngine(t, 1)
	if _, err := eng.Update(ctx, "main", []ast.Literal{lit(t, "p(x)")}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// A second NewEngineCtx over the same directory is a fresh genesis: the
	// old log and checkpoints must not bleed into the new chain.
	eng2, err := core.NewEngineCtx(ctx, tenantProgram(t, "b"), core.Config{},
		core.WithDurability(dir), core.WithDurableName("tn"), core.WithSync(wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := core.Recover(ctx, dir, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if v := rec.Current().Version(); v != 0 {
		t.Fatalf("recovered version %d after reset, want 0", v)
	}
	if got := leastStr(t, rec.Current()); got != leastStr(t, eng2.Current()) {
		t.Fatal("reset history recovered the old program")
	}
}

func TestAsOfInMemory(t *testing.T) {
	ctx := context.Background()
	eng, err := core.NewEngineCtx(ctx, tenantProgram(t, "a"), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{leastStr(t, eng.Current())}
	for i := 0; i < 3; i++ {
		snap, err := eng.Update(ctx, "main", []ast.Literal{lit(t, fmt.Sprintf("p(x%d)", i))})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, leastStr(t, snap))
	}
	// Every past version is reachable from the in-memory history, no
	// durability required — including v0, the initial grounding.
	for v := uint64(0); v <= 3; v++ {
		snap, err := eng.AsOfCtx(ctx, v)
		if err != nil {
			t.Fatalf("AsOf(%d): %v", v, err)
		}
		if snap.Version() != v {
			t.Fatalf("AsOf(%d) returned v%d", v, snap.Version())
		}
		if got := leastStr(t, snap); got != want[v] {
			t.Fatalf("AsOf(%d) diverged:\n%s\nwant:\n%s", v, got, want[v])
		}
	}
	// Repeated reads hit the cache: same snapshot pointer.
	s1, _ := eng.AsOfCtx(ctx, 1)
	s2, _ := eng.AsOfCtx(ctx, 1)
	if s1 != s2 {
		t.Fatal("AsOf(1) not cached")
	}
	if _, err := eng.AsOfCtx(ctx, 99); !errors.Is(err, core.ErrVersionUnknown) {
		t.Fatalf("AsOf(99): got %v, want ErrVersionUnknown", err)
	}
}

func TestTenantAsOfFallsBackToEngine(t *testing.T) {
	ctx := context.Background()
	r := core.NewRegistry(0, 2) // retain only 2 versions
	tn, _, err := r.Put(ctx, "a", tenantProgram(t, "a"), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := []string{leastStr(t, tn.Current())}
	for i := 0; i < 4; i++ {
		snap, err := tn.Update(ctx, "main", []ast.Literal{lit(t, fmt.Sprintf("p(x%d)", i))})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, leastStr(t, snap))
	}
	// v1 has aged out of the pinned retention window (At returns evicted)…
	if _, err := tn.At(1); !errors.Is(err, core.ErrVersionEvicted) {
		t.Fatalf("At(1): got %v, want ErrVersionEvicted", err)
	}
	// …but AsOf reconstructs it from the engine's history.
	snap, err := tn.AsOf(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := leastStr(t, snap); got != want[1] {
		t.Fatalf("Tenant.AsOf(1) diverged:\n%s\nwant:\n%s", got, want[1])
	}
	if _, err := tn.AsOf(ctx, 9); !errors.Is(err, core.ErrVersionUnknown) {
		t.Fatalf("Tenant.AsOf(9): got %v, want ErrVersionUnknown", err)
	}
}

// The engine only ever logs deduplicated facts that change the state, so a
// record that holds a no-op at its position — even beside facts that do
// change something — means the log and the checkpoint disagree. So does
// anything else the engine could not have written. Recovery must refuse
// each such record with wal.ErrCorrupt rather than patch over it.
func TestRecoverRejectsDivergentRecords(t *testing.T) {
	ctx := context.Background()
	// p(a) is in the source; p(x0) is asserted and p(x1) asserted then
	// retracted, so at v3 p(a) and p(x0) are live and p(x1) is not.
	eng, dir := durableEngine(t, 100)
	for _, step := range []struct {
		retract bool
		fact    string
	}{{false, "p(x0)"}, {false, "p(x1)"}, {true, "p(x1)"}} {
		var err error
		if step.retract {
			_, err = eng.Retract(ctx, "main", []ast.Literal{lit(t, step.fact)})
		} else {
			_, err = eng.Update(ctx, "main", []ast.Literal{lit(t, step.fact)})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		version uint64
		op      string
		comp    string
		facts   []string
	}{
		{"partial no-op assert", 4, "assert", "main", []string{"p(new)", "p(x0)"}},
		{"partial no-op retract", 4, "retract", "main", []string{"p(x0)", "p(x1)"}},
		{"no-op of a source fact", 4, "assert", "main", []string{"p(a)"}},
		{"fact repeated within the record", 4, "assert", "main", []string{"p(new)", "p(new)"}},
		{"empty record", 4, "assert", "main", nil},
		{"version out of sequence", 5, "assert", "main", []string{"p(new)"}},
		{"unknown component", 4, "assert", "nope", []string{"p(new)"}},
		{"unknown op", 4, "upsert", "main", []string{"p(new)"}},
		{"non-ground fact", 4, "assert", "main", []string{"p(X)"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := t.TempDir()
			if err := core.CopyDirTo(dir, bad); err != nil {
				t.Fatal(err)
			}
			res, err := wal.ReadAll(bad, wal.Genesis("tn"), true)
			if err != nil {
				t.Fatal(err)
			}
			last := res.Records[len(res.Records)-1]
			log, err := wal.OpenLogWith(bad, last.Hash, last.Seq, wal.LogOptions{Policy: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := log.Append(c.version, c.op, c.comp, c.facts); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			// The chain itself is intact: only the engine can tell.
			if _, err := wal.VerifyDir(bad); err != nil {
				t.Fatalf("the appended record should be well-formed: %v", err)
			}
			rec, err := core.Recover(ctx, bad, core.Config{})
			if err == nil {
				rec.Close()
				t.Fatal("recovery accepted a record that diverges from the checkpoint")
			}
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("got %v, want wal.ErrCorrupt", err)
			}
		})
	}
	// The untouched directory still recovers.
	rec, err := core.Recover(ctx, dir, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec.Close()
}
