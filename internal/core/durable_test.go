package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/oracle/gen"
	"repro/internal/stable"
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

func TestAsOfFromDisk(t *testing.T) {
	ctx := context.Background()
	eng, dir := durableEngine(t, 2)
	want := []string{leastStr(t, eng.Current())}
	for i := 0; i < 6; i++ {
		snap, err := eng.Update(ctx, "main", []ast.Literal{lit(t, fmt.Sprintf("p(x%d)", i))})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, leastStr(t, snap))
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := core.Recover(ctx, dir, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	// The recovered engine's base is the newest checkpoint (v6 with this
	// cadence), so versions below it resolve through the WAL on disk.
	for v := uint64(0); v <= 6; v++ {
		snap, err := rec.AsOfCtx(ctx, v)
		if err != nil {
			t.Fatalf("AsOf(%d) after recovery: %v", v, err)
		}
		if snap.Version() != v {
			t.Fatalf("AsOf(%d) returned v%d", v, snap.Version())
		}
		if got := leastStr(t, snap); got != want[v] {
			t.Fatalf("AsOf(%d) diverged after recovery:\n%s\nwant:\n%s", v, got, want[v])
		}
	}
	if _, err := rec.AsOfCtx(ctx, 7); !errors.Is(err, core.ErrVersionUnknown) {
		t.Fatalf("AsOf(7): got %v, want ErrVersionUnknown", err)
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

// copyDir clones a durability directory so a crash simulation can mutate
// the copy.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashRecoveryDifferential is the crash-safety pin: a durable engine
// under a random update/retract workload, "killed" by truncating its log
// at arbitrary byte offsets (exactly the state a SIGKILL mid-append
// leaves, since appends are sequential writes). For every kill point,
// Recover must produce the same least/AF/stable projections and version
// as an in-memory oracle that replays the surviving records from scratch,
// and must keep accepting writes. Random single-byte flips must instead
// fail strict verification.
func TestCrashRecoveryDifferential(t *testing.T) {
	const comps, nconst = 3, 3
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	prog := gen.RandomOrderedDatalog(rng, comps, nconst)
	shadow := cloneShadow(t, prog) // pristine copy for oracle rebuilds

	dir := t.TempDir()
	eng, err := core.NewEngineCtx(context.Background(), prog, core.Config{},
		core.WithDurability(dir), core.WithDurableName("crash"),
		core.WithCheckpointEvery(16), core.WithSync(wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(prog.Components))
	for i, c := range prog.Components {
		names[i] = c.Name
	}
	nops := 60
	if testing.Short() {
		nops = 24
	}
	for op := 0; op < nops; op++ {
		o := randomOp(rng, comps, nconst)
		if o.retract {
			_, err = eng.Retract(ctx, names[o.comp], []ast.Literal{o.lit})
		} else {
			_, err = eng.Update(ctx, names[o.comp], []ast.Literal{o.lit})
		}
		if err != nil {
			t.Fatalf("op %d (%v): %v", op, o, err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, wal.LogName))
	if err != nil {
		t.Fatal(err)
	}

	// oracle replays the k surviving records onto the pristine program in a
	// memory-only engine: the genesis checkpoint holds exactly that
	// program, so whatever checkpoint recovery starts from, the results
	// must agree with the full from-scratch replay.
	apply := func(t *testing.T, fresh *core.Engine, rec wal.Record) {
		t.Helper()
		facts := make([]ast.Literal, len(rec.Facts))
		for i, fs := range rec.Facts {
			facts[i] = lit(t, fs)
		}
		var err error
		if rec.Op == "retract" {
			_, err = fresh.Retract(ctx, rec.Comp, facts)
		} else {
			_, err = fresh.Update(ctx, rec.Comp, facts)
		}
		if err != nil {
			t.Fatalf("oracle replay record %d: %v", rec.Seq, err)
		}
	}
	oracle := func(t *testing.T, recs []wal.Record) *core.Engine {
		t.Helper()
		fresh, err := core.NewEngineCtx(context.Background(), cloneShadow(t, shadow), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			apply(t, fresh, rec)
		}
		return fresh
	}
	sameLeast := func(t *testing.T, what string, got, want *core.Snapshot) {
		t.Helper()
		for _, name := range names {
			g, err1 := got.LeastModelCtx(context.Background(), name)
			w, err2 := want.LeastModelCtx(context.Background(), name)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s least(%s): %v / %v", what, name, err1, err2)
			}
			if g.String() != w.String() {
				t.Fatalf("%s: least model diverged in %s:\nrecovered: %s\noracle:    %s", what, name, g, w)
			}
		}
	}

	kills := 50
	if testing.Short() {
		kills = 12
	}
	for i := 0; i < kills; i++ {
		cut := rng.Intn(len(raw) + 1)
		t.Run(fmt.Sprintf("kill@%05d", cut), func(t *testing.T) {
			crash := copyDir(t, dir)
			if err := os.Truncate(filepath.Join(crash, wal.LogName), int64(cut)); err != nil {
				t.Fatal(err)
			}
			dec, err := wal.ReadAll(crash, wal.Genesis("crash"), false)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := core.Recover(ctx, crash, core.Config{}, core.WithSync(wal.SyncAlways))
			if err != nil {
				t.Fatalf("recover after cut at %d (%d surviving records): %v", cut, len(dec.Records), err)
			}
			defer rec.Close()
			if got, want := rec.Current().Version(), uint64(len(dec.Records)); got != want {
				t.Fatalf("recovered v%d, oracle says v%d", got, want)
			}
			fresh := oracle(t, dec.Records)
			gotSnap, wantSnap := rec.Current(), fresh.Current()
			sameLeast(t, fmt.Sprintf("tip after cut %d", cut), gotSnap, wantSnap)
			// Time travel over the recovered window: every version from the
			// checkpoint recovery started at up to the tip answers as the
			// oracle replayed to that version.
			cps, err := wal.Checkpoints(crash)
			if err != nil || len(cps) == 0 {
				t.Fatalf("checkpoints after recovery: %v (%d)", err, len(cps))
			}
			from := cps[len(cps)-1].Version
			step := oracle(t, dec.Records[:from])
			for v := from; v <= gotSnap.Version(); v++ {
				if v > from {
					apply(t, step, dec.Records[v-1])
				}
				past, err := rec.AsOfCtx(context.Background(), v)
				if err != nil {
					t.Fatalf("AsOf(%d) after cut %d: %v", v, cut, err)
				}
				sameLeast(t, fmt.Sprintf("AsOf(%d) after cut %d", v, cut), past, step.Current())
			}
			// Enumeration projections on the most specific component.
			name := names[0]
			gotAF, errG := gotSnap.AssumptionFreeModelsCtx(context.Background(), name, stable.Options{})
			wantAF, errW := wantSnap.AssumptionFreeModelsCtx(context.Background(), name, stable.Options{})
			if g, w := diffModelSet(t, gotAF, errG), diffModelSet(t, wantAF, errW); g != w {
				t.Fatalf("AF models diverged after cut %d:\nrecovered: %s\noracle:    %s", cut, g, w)
			}
			gotSt, errG := gotSnap.StableModelsCtx(context.Background(), name, stable.Options{})
			wantSt, errW := wantSnap.StableModelsCtx(context.Background(), name, stable.Options{})
			if g, w := diffModelSet(t, gotSt, errG), diffModelSet(t, wantSt, errW); g != w {
				t.Fatalf("stable models diverged after cut %d:\nrecovered: %s\noracle:    %s", cut, g, w)
			}
			// The recovered engine must still be writable on the same chain.
			if _, err := rec.Update(ctx, names[0], []ast.Literal{lit(t, "p0(c0)")}); err != nil {
				t.Fatalf("post-recovery update: %v", err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := wal.VerifyDir(crash); err != nil {
				t.Fatalf("verify after recovery+update: %v", err)
			}
		})
	}

	// A flipped byte is tampering, not a crash: strict verification must
	// refuse the directory.
	flips := 20
	if testing.Short() {
		flips = 5
	}
	for i := 0; i < flips; i++ {
		pos := rng.Intn(len(raw))
		tampered := copyDir(t, dir)
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(filepath.Join(tampered, wal.LogName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := wal.VerifyDir(tampered); err == nil {
			t.Fatalf("flipped bit at byte %d went undetected by VerifyDir", pos)
		}
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
			bad := copyDir(t, dir)
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
