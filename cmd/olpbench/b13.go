package main

import (
	"context"
	"fmt"
	"os"
	"time"

	ordlog "repro"
)

// B13: durability overhead and crash recovery. Part one replays the B10
// update workload (assert bad(ci) into the exception component, then
// goal-directed requery) on three engines that differ only in
// persistence: memory-only, WAL with interval fsync, WAL with per-append
// fsync. Part two measures ordlog.Recover wall time against log length:
// the same durable history recovered from its genesis checkpoint (full
// replay) and with a tight checkpoint cadence (suffix replay), so the
// table shows both the cost of a record and what checkpoints buy.

// b13Mode is one persistence configuration of the update benchmark.
type b13Mode struct {
	name string
	opts func(dir string) []ordlog.Option
}

func b13Modes() []b13Mode {
	return []b13Mode{
		{"memory", func(string) []ordlog.Option { return nil }},
		{"wal-interval", func(dir string) []ordlog.Option {
			return []ordlog.Option{ordlog.WithDurability(dir), ordlog.WithSync(ordlog.SyncInterval)}
		}},
		{"wal-always", func(dir string) []ordlog.Option {
			return []ordlog.Option{ordlog.WithDurability(dir), ordlog.WithSync(ordlog.SyncAlways)}
		}},
	}
}

// b13Update measures k B10-shaped updates (each a genuine state change
// followed by a goal-directed requery) on an engine built with opts and
// returns the best-of-3 mean wall time per update. Each episode gets a
// fresh engine (NewEngine resets the durability directory), so the three
// runs are identical work and the minimum strips scheduler noise.
func b13Update(n, k int, opts []ordlog.Option) time.Duration {
	ctx := context.Background()
	prog := must(ordlog.ParseProgram(b10Source(n, nil)))
	best := time.Duration(0)
	for ep := 0; ep < 3; ep++ {
		eng := must(ordlog.NewEngine(prog, ordlog.Config{}, opts...))
		start := time.Now()
		for j := 0; j < k; j++ {
			f := must(ordlog.ParseLiteral(fmt.Sprintf("bad(c%d)", j)))
			snap := must(eng.Update(ctx, "exc", []ordlog.Literal{f}))
			goal := must(ordlog.ParseLiteral(fmt.Sprintf("-ok(c%d)", j)))
			if !must(snap.Prove("exc", goal)) {
				panic("olpbench: B13 requery failed")
			}
		}
		d := time.Since(start) / time.Duration(k)
		eng.Close()
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// b13TempDir allocates a scratch durability directory.
func b13TempDir() string {
	dir, err := os.MkdirTemp("", "olpbench-b13-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "olpbench:", err)
		os.Exit(1)
	}
	return dir
}

// b13WriteHistory builds a durable engine over dir and logs r update
// records with the given checkpoint cadence, then closes it. The records
// alternate rounds of asserting and retracting bad/1 over a window of
// 100 constants — every record is a genuine state change, but the
// constant universe stays bounded so replay cost is per-record, not
// per-history. Interval sync keeps history construction out of the
// measurement's way — the recovery cost depends only on what is in the
// directory.
func b13WriteHistory(dir string, n, r, every int) {
	ctx := context.Background()
	opts := []ordlog.Option{
		ordlog.WithDurability(dir),
		ordlog.WithSync(ordlog.SyncInterval),
		ordlog.WithCheckpointEvery(every),
	}
	eng := must(ordlog.NewEngine(must(ordlog.ParseProgram(b10Source(n, nil))), ordlog.Config{}, opts...))
	for j := 0; j < r; j++ {
		f := must(ordlog.ParseLiteral(fmt.Sprintf("bad(b%d)", j%100)))
		if (j/100)%2 == 0 {
			must(eng.Update(ctx, "exc", []ordlog.Literal{f}))
		} else {
			must(eng.Retract(ctx, "exc", []ordlog.Literal{f}))
		}
	}
	if err := eng.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "olpbench:", err)
		os.Exit(1)
	}
}

// b13Recover recovers dir once and returns the wall time and recovered
// tip version.
func b13Recover(dir string) (time.Duration, uint64) {
	start := time.Now()
	eng := must(ordlog.Recover(context.Background(), dir, ordlog.Config{}))
	d := time.Since(start)
	v := eng.Current().Version()
	eng.Close()
	return d, v
}

// b13Sizes returns (n facts, k updates, r logged records) honouring -quick.
func b13Sizes() (n, k, r int) {
	if *quick {
		return 1000, 50, 2000
	}
	return 1000, 200, 10000
}

// b13Cadences returns the recovery checkpoint cadences: one past the log
// length (every record replays from genesis) and a tight cadence chosen
// not to divide r (so a real suffix past the newest checkpoint replays).
func b13Cadences(r int) [2]int { return [2]int{r + 1, 1500} }

// b13Replayed computes how many records recovery replays past the newest
// checkpoint for a log of r records at the given cadence.
func b13Replayed(r, every int) int {
	if every > r {
		return r
	}
	return r % every
}

func b13() {
	header("B13: WAL durability overhead (B10 updates) and recovery time vs log length")
	n, k, r := b13Sizes()

	w := tw()
	fmt.Fprintln(w, "mode\tn facts\tk updates\tper update\tvs memory")
	var memNs time.Duration
	for _, m := range b13Modes() {
		dir := b13TempDir()
		per := b13Update(n, k, m.opts(dir))
		os.RemoveAll(dir)
		if m.name == "memory" {
			memNs = per
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\t%.2fx\n", m.name, n, k, per, float64(per)/float64(memNs))
	}
	w.Flush()

	fmt.Println()
	w = tw()
	fmt.Fprintln(w, "records\tcheckpoint every\treplayed\trecover\tms")
	for _, every := range b13Cadences(r) {
		dir := b13TempDir()
		b13WriteHistory(dir, 100, r, every)
		d, v := b13Recover(dir)
		os.RemoveAll(dir)
		fmt.Fprintf(w, "%d\t%d\t%d (to v%d)\t%v\t%d\n", r, every, b13Replayed(r, every), v, d, d.Milliseconds())
	}
	w.Flush()
	fmt.Println("note: wal-interval acknowledges before fsync (bounded loss window); wal-always")
	fmt.Println("      pays one fsync per update. Recovery folds the suffix past the newest")
	fmt.Println("      consistent checkpoint into its program and grounds the tip once.")
}

// b13JSON renders the same measurements for -exp B13 -json.
func b13JSON() []benchResult {
	n, k, r := b13Sizes()
	var results []benchResult
	var memNs int64
	for _, m := range b13Modes() {
		dir := b13TempDir()
		per := b13Update(n, k, m.opts(dir)).Nanoseconds()
		os.RemoveAll(dir)
		if m.name == "memory" {
			memNs = per
		}
		results = append(results, benchResult{
			Name: fmt.Sprintf("B13Update/%s/n=%d/k=%d", m.name, n, k),
			NsOp: per,
			Metrics: map[string]int64{
				"overhead_pct_vs_memory": (per - memNs) * 100 / memNs,
			},
		})
	}
	for _, every := range b13Cadences(r) {
		dir := b13TempDir()
		b13WriteHistory(dir, 100, r, every)
		d, v := b13Recover(dir)
		os.RemoveAll(dir)
		replayed := b13Replayed(r, every)
		kind := "suffix-replay"
		if every > r {
			kind = "full-replay"
		}
		results = append(results, benchResult{
			Name: fmt.Sprintf("B13Recover/%s/records=%d", kind, r),
			NsOp: d.Nanoseconds(),
			Metrics: map[string]int64{
				"records":          int64(r),
				"replayed":         int64(replayed),
				"recover_ms":       d.Milliseconds(),
				"checkpoint_every": int64(every),
				"recovered_v":      int64(v),
			},
		})
	}
	return results
}
