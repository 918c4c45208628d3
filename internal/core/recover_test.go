package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/oracle/gen"
	"repro/internal/wal"
	"repro/internal/workload"
)

// effectiveProgramOracle is the rule-scanning fold the history's index
// replaced: every event scans its component's rules for Equal facts. It is
// quadratic in the history and kept only to pin the indexed fold byte for
// byte.
func effectiveProgramOracle(src *ast.OrderedProgram, log []factEvent) (*ast.OrderedProgram, error) {
	comps := make([]*ast.Component, len(src.Components))
	for i, c := range src.Components {
		comps[i] = &ast.Component{Name: c.Name, Rules: append([]*ast.Rule(nil), c.Rules...)}
	}
	equalFact := func(r *ast.Rule, l ast.Literal) bool {
		return r.IsFact() && r.Head.Neg == l.Neg && r.Head.Atom.Ground() && r.Head.Atom.Equal(l.Atom)
	}
	for _, ev := range log {
		c := comps[ev.comp]
		if ev.retract {
			kept := c.Rules[:0]
			for _, r := range c.Rules {
				if !equalFact(r, ev.lit) {
					kept = append(kept, r)
				}
			}
			c.Rules = kept
			continue
		}
		present := false
		for _, r := range c.Rules {
			if equalFact(r, ev.lit) {
				present = true
				break
			}
		}
		if !present {
			c.Rules = append(c.Rules, ast.Fact(ev.lit))
		}
	}
	p := ast.NewOrderedProgram()
	for _, c := range comps {
		if err := p.AddComponent(c); err != nil {
			return nil, err
		}
	}
	for _, ed := range src.Edges {
		if err := p.AddEdge(ed.Child, ed.Parent); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// randomFactLog draws n fact events over the corpus generator's alphabet
// (p0..p3/1, e/2, constants c0..c4), negative facts included, with
// repeats, retracts of absent facts, and retracts of the source's own.
func randomFactLog(rng *rand.Rand, comps, n int) []factEvent {
	cst := func() ast.Term { return ast.Sym(fmt.Sprintf("c%d", rng.Intn(5))) }
	log := make([]factEvent, n)
	for i := range log {
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
		log[i] = factEvent{comp: rng.Intn(comps), lit: l, retract: rng.Intn(2) == 0, ver: uint64(i + 1)}
	}
	return log
}

// The history's program renders byte-identically to the rule-scan
// oracle on random histories over the 200-seed corpus. Half the programs
// carry duplicated fact rules, so a retract must remove every
// ground-equal copy, not just the indexed first one.
func TestEffectiveProgramMatchesOracle(t *testing.T) {
	const comps, nconst = 3, 3
	for seed := 0; seed < 200; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		prog := gen.RandomOrderedDatalog(rng, comps, nconst)
		if seed%2 == 1 {
			for _, c := range prog.Components {
				for _, r := range c.Rules {
					if r.IsFact() && rng.Intn(2) == 0 {
						c.Rules = append(c.Rules, ast.Fact(r.Head))
					}
				}
			}
		}
		log := randomFactLog(rng, comps, 5+rng.Intn(60))
		got, err1 := replay(prog, log).program()
		want, err2 := effectiveProgramOracle(prog, log)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed %d: errors differ: %v vs oracle %v", seed, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if g, w := got.String(), want.String(); g != w {
			t.Fatalf("seed %d: effective programs differ\nindexed:\n%s\noracle:\n%s", seed, g, w)
		}
	}
}

// writePolicyHistory writes a durable history over the policy tenant: kb
// facts, then ops (assert when the key is not live, retract when it is)
// of bad(K) into exc.
func writePolicyHistory(t *testing.T, kb int, keys []string, opts ...Option) (*Engine, string) {
	t.Helper()
	dir := t.TempDir()
	opts = append([]Option{WithDurability(dir), WithDurableName("policy"), WithSync(wal.SyncAlways)}, opts...)
	eng, err := NewEngineCtx(context.Background(), mustProgram(t, gen.PolicySource(kb)), Config{}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[string]bool)
	for _, k := range keys {
		f := []ast.Literal{lit(t, k)}
		if live[k] {
			_, err = eng.Retract(context.Background(), "exc", f)
		} else {
			_, err = eng.Update(context.Background(), "exc", f)
		}
		if err != nil {
			t.Fatal(err)
		}
		live[k] = !live[k]
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return eng, dir
}

// Recovery grounds the tip once: a suffix whose records, replayed one by
// one, would reground (each retract of bad(kI) removes the constant kI's
// last fact) costs exactly one ground run and no update at all.
func TestRecoverGroundsOnce(t *testing.T) {
	if !obs.On() {
		t.Skip("metrics disabled")
	}
	keys := []string{"bad(k1)", "bad(c1)", "bad(k1)", "bad(k2)", "bad(k2)", "bad(c1)", "bad(k3)"}
	before := obs.Default().Snap()
	orig, dir := writePolicyHistory(t, 20, keys, WithCheckpointEvery(100))
	if d := obs.Default().Snap().Diff(before); d["core.update.fallback.last-constant"] != 2 {
		t.Fatalf("the history should reground twice for last-constant, counters: %v", d)
	}
	before = obs.Default().Snap()
	rec, err := Recover(context.Background(), dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	d := obs.Default().Snap().Diff(before)
	for name, want := range map[string]int64{
		"ground.runs":           1,
		"core.updates":          0,
		"ground.delta.asserts":  0,
		"ground.delta.retracts": 0,
		"wal.recover.records":   int64(len(keys)),
	} {
		if got := d[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got, want := rec.Current().Version(), uint64(len(keys)); got != want {
		t.Fatalf("recovered v%d, want v%d", got, want)
	}
	for _, comp := range []string{"kb", "policy", "exc"} {
		g, err1 := rec.LeastModelCtx(context.Background(), comp)
		w, err2 := orig.LeastModelCtx(context.Background(), comp)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if g.String() != w.String() {
			t.Fatalf("least model of %s diverged:\nrecovered: %s\nwritten:   %s", comp, g, w)
		}
	}
}

// The recovered engine's bookkeeping matches the replay it replaces: the
// in-memory history starts at the checkpoint, the compaction cadence
// counts the suffix, and a suffix of at least CompactEvery records is
// collapsed with the time-travel floor at the tip. In every shape the
// engine keeps writing on the same chain and the directory verifies.
func TestRecoverEdgeCases(t *testing.T) {
	cases := []struct {
		name                string
		keys                int // toggles written
		checkpoint, compact int
		wantCP              uint64
		wantMemBase         uint64
		wantSince           int
		wantEvents          int
	}{
		{name: "empty suffix", keys: 6, checkpoint: 3, compact: 0, wantCP: 6, wantMemBase: 6, wantSince: 0, wantEvents: 0},
		{name: "short suffix", keys: 5, checkpoint: 3, compact: 4, wantCP: 3, wantMemBase: 3, wantSince: 2, wantEvents: 2},
		{name: "suffix reaches CompactEvery", keys: 9, checkpoint: 100, compact: 4, wantCP: 0, wantMemBase: 9, wantSince: 0, wantEvents: 3},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Toggle three keys round robin: bad(k0) regrounds on retract.
			var keys []string
			for i := 0; i < c.keys; i++ {
				keys = append(keys, []string{"bad(k0)", "bad(c1)", "bad(c2)"}[i%3])
			}
			opts := []Option{WithCheckpointEvery(c.checkpoint)}
			if c.compact > 0 {
				opts = append(opts, WithCompactEvery(c.compact))
			}
			orig, dir := writePolicyHistory(t, 5, keys, opts...)
			cfg := Config{CompactEvery: c.compact}
			rec, err := Recover(ctx, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			tip := uint64(c.keys)
			if v := rec.Current().Version(); v != tip {
				t.Fatalf("recovered v%d, want v%d", v, tip)
			}
			if rec.base != c.wantCP || rec.memBase.Load() != c.wantMemBase || rec.sinceCompact != c.wantSince {
				t.Fatalf("base %d memBase %d sinceCompact %d, want %d %d %d",
					rec.base, rec.memBase.Load(), rec.sinceCompact, c.wantCP, c.wantMemBase, c.wantSince)
			}
			if n := rec.Current().NumLogEvents(); n != c.wantEvents {
				t.Fatalf("carried history holds %d events, want %d", n, c.wantEvents)
			}
			if got, want := leastOf(t, rec.Current()), leastOf(t, orig.Current()); got != want {
				t.Fatalf("recovered tip diverged:\n%s\nwant:\n%s", got, want)
			}
			// Every version since the checkpoint answers as it was written.
			for v := c.wantCP; v <= tip; v++ {
				got, err := rec.AsOfCtx(context.Background(), v)
				if err != nil {
					t.Fatalf("AsOf(%d): %v", v, err)
				}
				want, err := orig.AsOfCtx(context.Background(), v)
				if err != nil {
					t.Fatalf("oracle AsOf(%d): %v", v, err)
				}
				if g, w := leastOf(t, got), leastOf(t, want); g != w {
					t.Fatalf("AsOf(%d) diverged:\n%s\nwant:\n%s", v, g, w)
				}
			}
			snap, err := rec.Update(ctx, "exc", []ast.Literal{lit(t, "bad(after)")})
			if err != nil || snap.Version() != tip+1 {
				t.Fatalf("post-recovery update: %v", err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			res, err := wal.VerifyDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if res.Version != tip+1 {
				t.Fatalf("verified v%d, want v%d", res.Version, tip+1)
			}
		})
	}
}

func leastOf(t *testing.T, s *Snapshot) string {
	t.Helper()
	m, err := s.LeastModelCtx(context.Background(), "exc")
	if err != nil {
		t.Fatal(err)
	}
	return m.String()
}

// BenchmarkRecover recovers the serving benchmark's update-churn fixture:
// the policy tenant (kb = 1000), CheckpointEvery 250, and 450 toggles of
// bad(K) over a 128-key window in Zipf s=1.2 proportions, even ranks
// naming constants outside kb, so the 200-record suffix past the v250
// checkpoint holds about 30 % retracts that remove a constant's last fact.
// It reports the recovery time per suffix record.
func BenchmarkRecover(b *testing.B) {
	const kb, window, toggles, every = 1000, 128, 450, 250
	dir := b.TempDir()
	eng, err := NewEngineCtx(context.Background(), mustProgram(b, gen.PolicySource(kb)), Config{CompactEvery: 256},
		WithDurability(dir), WithDurableName("policy"), WithSync(wal.SyncInterval),
		WithCheckpointEvery(every), WithRotateRecords(500), WithKeepCheckpoints(3))
	if err != nil {
		b.Fatal(err)
	}
	z := workload.NewZipf(rand.New(rand.NewSource(1)), 1.2, window)
	live := make([]bool, window)
	ctx := context.Background()
	for i := 0; i < toggles; i++ {
		k := z.Next()
		name := fmt.Sprintf("c%d", k)
		if k%2 == 0 {
			name = fmt.Sprintf("k%d", k)
		}
		f := []ast.Literal{ast.Pos(ast.Atom{Pred: "bad", Args: []ast.Term{ast.Sym(name)}})}
		if live[k] {
			_, err = eng.Retract(ctx, "exc", f)
		} else {
			_, err = eng.Update(ctx, "exc", f)
		}
		if err != nil {
			b.Fatal(err)
		}
		live[k] = !live[k]
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		rec, err := Recover(ctx, dir, Config{CompactEvery: 256})
		if err != nil {
			b.Fatal(err)
		}
		if v := rec.Current().Version(); v != toggles {
			b.Fatalf("recovered v%d, want v%d", v, toggles)
		}
		rec.Close()
	}
	perRecord := float64(time.Since(start).Microseconds()) / 1e3 / float64(b.N) / float64(toggles-every)
	b.ReportMetric(perRecord, "ms/record")
}

// BenchmarkCheckpoint is the cost of one checkpoint of the durable
// policy tenant (kb = 1000) after H logged events since the last
// compaction: toggles of bad(cK) in exc over a 128-key window, with no
// compaction, so the tip's history holds H events. A checkpoint syncs the
// log, renders the tip's effective program and writes it atomically.
func BenchmarkCheckpoint(b *testing.B) {
	const kb, window = 1000, 128
	for _, events := range []int{0, 1000, 10000} {
		b.Run(fmt.Sprintf("H=%d", events), func(b *testing.B) {
			ctx := context.Background()
			eng, err := NewEngineCtx(ctx, mustProgram(b, gen.PolicySource(kb)), Config{},
				WithDurability(b.TempDir()), WithSync(wal.SyncInterval), WithCheckpointEvery(1<<30))
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			live := make([]bool, window)
			for i := 0; i < events; i++ {
				k := i % window
				f := []ast.Literal{ast.Pos(ast.Atom{Pred: "bad", Args: []ast.Term{ast.Sym(fmt.Sprintf("c%d", k))}})}
				if live[k] {
					_, err = eng.Retract(ctx, "exc", f)
				} else {
					_, err = eng.Update(ctx, "exc", f)
				}
				if err != nil {
					b.Fatal(err)
				}
				live[k] = !live[k]
			}
			tip := eng.Current()
			if n := tip.NumLogEvents(); n != events {
				b.Fatalf("the tip's history holds %d events, want %d", n, events)
			}
			eng.writeMu.Lock()
			defer eng.writeMu.Unlock()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.dur.sinceCP = eng.dur.every - 1 // due now
				if err := eng.walCheckpoint(tip); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpdateDurable is the cost of one update and its requery under
// each persistence mode: the policy tenant (kb = 1000), an assert of
// bad(cJ) into exc, then a proof of -ok(cJ) on the version it published.
// An episode is 200 such updates on a fresh engine, built off the clock
// (NewEngineCtx resets the durability directory), so every iteration is a
// genuine state change over the same history length. The gap between the
// modes is what a WAL append, and an fsync per append, add to an Update.
func BenchmarkUpdateDurable(b *testing.B) {
	const kb, episode = 1000, 200
	for _, m := range []struct {
		name string
		opts func(dir string) []Option
	}{
		{"memory", func(string) []Option { return nil }},
		{"wal-interval", func(dir string) []Option {
			return []Option{WithDurability(dir), WithSync(wal.SyncInterval)}
		}},
		{"wal-always", func(dir string) []Option {
			return []Option{WithDurability(dir), WithSync(wal.SyncAlways)}
		}},
	} {
		b.Run(m.name, func(b *testing.B) {
			prog := mustProgram(b, gen.PolicySource(kb))
			dir := b.TempDir()
			facts := make([][]ast.Literal, episode)
			goals := make([]ast.Literal, episode)
			for j := range facts {
				c := ast.Sym(fmt.Sprintf("c%d", j))
				facts[j] = []ast.Literal{ast.Pos(ast.Atom{Pred: "bad", Args: []ast.Term{c}})}
				goals[j] = ast.Neg(ast.Atom{Pred: "ok", Args: []ast.Term{c}})
			}
			ctx := context.Background()
			var eng *Engine
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % episode
				if j == 0 {
					b.StopTimer()
					if eng != nil {
						eng.Close()
					}
					var err error
					if eng, err = NewEngineCtx(context.Background(), prog, Config{}, m.opts(dir)...); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				snap, err := eng.Update(ctx, "exc", facts[j])
				if err != nil {
					b.Fatal(err)
				}
				if ok, err := snap.ProveCtx(context.Background(), "exc", goals[j]); err != nil || !ok {
					b.Fatalf("requery %s: %v, %v", goals[j], ok, err)
				}
			}
			b.StopTimer()
			eng.Close()
		})
	}
}
