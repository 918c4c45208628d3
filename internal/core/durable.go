package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/wal"
)

// Recovery metrics, resolved once (see internal/wal for the append-side
// families).
var (
	mRecoverRecords = obs.Default().Counter("wal.recover.records")
	mRecoverMs      = obs.Default().Counter("wal.recover.ms")
)

// durable is the WAL state of one durable engine. Updates touch it only
// under the engine's write lock; the wal.Log has its own mutex for the
// background flusher.
type durable struct {
	dir     string
	name    string
	every   int
	keep    int // checkpoint retention bound (0 = keep all, no pruning)
	log     *wal.Log
	sinceCP int // appends since the last checkpoint
}

// logOptions maps the Durability config onto the wal append options.
func logOptions(d Durability) wal.LogOptions {
	return wal.LogOptions{Policy: d.Sync, RotateRecords: d.RotateRecords, RotateBytes: d.RotateBytes}
}

// initDurability starts a fresh durable history for a newly constructed
// engine: NewEngineCtx means "this program is the new genesis" (Recover is
// the path that restores a history), so wal.Create replaces any WAL state
// in the directory with a genesis checkpoint of the source program. An
// unusable directory surfaces as a *ConfigError from NewEngineCtx.
func (e *Engine) initDurability() error {
	d := e.cfg.Durability
	log, err := wal.Create(d.Dir, d.Name, e.base, e.src.String(), logOptions(d))
	if err != nil {
		return &ConfigError{Field: "Durability.Dir", Value: d.Dir, Reason: err.Error()}
	}
	e.dur = &durable{dir: d.Dir, name: d.Name, every: d.CheckpointEvery, keep: d.KeepCheckpoints, log: log}
	return nil
}

// Durable reports whether the engine has a write-ahead log attached.
func (e *Engine) Durable() bool { return e.dur != nil }

// DurableName returns the tenant name seeding the WAL hash chain ("" for
// a memory-only engine or an anonymous one).
func (e *Engine) DurableName() string {
	if e.dur == nil {
		return ""
	}
	return e.dur.name
}

// Close flushes and closes the engine's write-ahead log. Memory-only
// engines are a no-op. After Close, updates fail (the log rejects
// appends) but reads keep working; closing twice is safe.
func (e *Engine) Close() error {
	if e.dur == nil {
		return nil
	}
	return e.dur.log.Close()
}

// walAppend logs the batch of rendered facts producing version. Called
// under writeMu before the version is published — the write-ahead half of
// the contract: a version an observer can see is always on disk (fsynced
// per policy) first. An append failure fails the update; the snapshot is
// discarded unpublished.
func (e *Engine) walAppend(version uint64, ci int, verb string, facts []string) error {
	if e.dur == nil {
		return nil
	}
	if _, err := e.dur.log.Append(version, verb, e.src.Components[ci].Name, facts); err != nil {
		return fmt.Errorf("core: update v%d not logged: %w", version, err)
	}
	return nil
}

// walCheckpoint writes a snapshot checkpoint of the tip, which child is,
// when the cadence is due, and applies retention (wal.Log.Checkpoint).
// Called under writeMu after the child snapshot is published. On error the
// update itself has been applied and logged — only the checkpoint (a pure
// replay-length optimisation) is missing.
func (e *Engine) walCheckpoint(child *Snapshot) error {
	d := e.dur
	if d == nil {
		return nil
	}
	d.sinceCP++
	if d.sinceCP < d.every {
		return nil
	}
	eff, err := e.hist.program()
	if err != nil {
		return err
	}
	if err := d.log.Checkpoint(d.name, child.version, eff.String(), d.keep); err != nil {
		return err
	}
	d.sinceCP = 0
	return nil
}

// replayWAL reads the history a checkpoint and the WAL records after it
// log: the checkpoint's program, with one event per logged fact folded
// into its index, stamped with its record's version. It is the one fold
// of a checkpoint and its records behind Recover, AsOf-from-disk and
// Verify. Anything the engine could
// not have written fails with wal.ErrCorrupt naming the record: a program
// that does not parse, an unknown component or op, a fact that does not
// parse or is not ground, a version that breaks the sequence from the
// checkpoint's, and — since walAppend logs only deduplicated facts that
// change the state — a record without facts or any fact that is a no-op
// at its position (asserting a live fact, retracting a dead one, or
// repeating one within its record): then the log and the checkpoint
// disagree.
func replayWAL(cp *wal.Checkpoint, recs []wal.Record) (*history, error) {
	prog, err := parser.ParseProgram(cp.Program)
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint v%d program: %v", wal.ErrCorrupt, cp.Version, err)
	}
	h := replay(prog, nil)
	for i, rec := range recs {
		if want := cp.Version + uint64(i) + 1; rec.Version != want {
			return nil, fmt.Errorf("%w: record %d is v%d, the sequence from checkpoint v%d says v%d", wal.ErrCorrupt, rec.Seq, rec.Version, cp.Version, want)
		}
		ci, ok := prog.ComponentIndex(rec.Comp)
		if !ok {
			return nil, fmt.Errorf("%w: record %d names unknown component %q", wal.ErrCorrupt, rec.Seq, rec.Comp)
		}
		if rec.Op != "assert" && rec.Op != "retract" {
			return nil, fmt.Errorf("%w: record %d has unknown op %q", wal.ErrCorrupt, rec.Seq, rec.Op)
		}
		if len(rec.Facts) == 0 {
			return nil, fmt.Errorf("%w: replay diverged at record %d: it changes nothing", wal.ErrCorrupt, rec.Seq)
		}
		for _, fs := range rec.Facts {
			lit, err := parser.ParseLiteral(fs)
			if err != nil {
				return nil, fmt.Errorf("%w: record %d fact %q: %v", wal.ErrCorrupt, rec.Seq, fs, err)
			}
			if !lit.Ground() {
				return nil, fmt.Errorf("%w: record %d fact %q is not ground", wal.ErrCorrupt, rec.Seq, fs)
			}
			if !h.apply(factEvent{comp: ci, lit: lit, retract: rec.Op == "retract", ver: rec.Version}, lit.String()) {
				return nil, fmt.Errorf("%w: replay diverged at record %d: %s %s changes nothing", wal.ErrCorrupt, rec.Seq, rec.Op, fs)
			}
		}
	}
	return h, nil
}

// Recover rebuilds a durable engine from dir: wal.Open reads it
// tolerantly, and the newest consistent checkpoint's program is folded
// with the records after it. A version's models depend only on its
// effective program, not on the history that built it, so the recovered
// tip is grounded once — through the same effective-program reground that
// fallbacks, compaction and AsOf use — whatever the suffix's length and
// whatever its records would have cost one by one. Only then is the
// directory repaired (the torn tail of a crash mid-append truncated, stale
// checkpoints removed) and its log reopened; any other damage, and any
// record that does not change the state it is folded into, aborts
// recovery with an error wrapping wal.ErrCorrupt and leaves dir as it was.
//
// The recovered engine's in-memory history starts at the checkpoint, so
// AsOf over [checkpoint, tip] is served from memory; a suffix of at least
// Config.CompactEvery records is collapsed as the compaction replaying it
// would have been, which moves that floor to the tip.
//
// cfg/opts configure the recovered engine exactly as NewEngineCtx would; the
// durability directory is forced to dir and the tenant name is adopted
// from the checkpoints (setting a conflicting WithDurableName is an
// error). The recovered engine continues appending to the same log.
func Recover(ctx context.Context, dir string, cfg Config, opts ...Option) (*Engine, error) {
	for _, o := range opts {
		o(&cfg)
	}
	cfg.Durability.Dir = dir
	if cfg.Durability.CheckpointEvery == 0 {
		cfg.Durability.CheckpointEvery = DefaultCheckpointEvery
	}
	start := time.Now()
	d, err := wal.Open(dir, false)
	if err != nil {
		return nil, fmt.Errorf("core: recover %s: %w", dir, err)
	}
	if cfg.Durability.Name == "" {
		cfg.Durability.Name = d.Name
	} else if cfg.Durability.Name != d.Name {
		return nil, &ConfigError{Field: "Durability.Name", Value: cfg.Durability.Name, Reason: fmt.Sprintf("directory %s belongs to %q", dir, d.Name)}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cp := d.Newest(math.MaxUint64)
	suffix := d.After(cp)
	h, err := replayWAL(cp, suffix)
	if err != nil {
		return nil, fmt.Errorf("core: recover %s: %w", dir, err)
	}
	tip := cp.Version + uint64(len(suffix))
	collapse := cfg.CompactEvery > 0 && len(suffix) >= cfg.CompactEvery
	if collapse {
		h = h.collapsed()
	}
	// The tip is published with e.dur still nil: the records are already
	// on disk and nothing here may re-log them.
	e := newEngine(h, cfg, cp.Version)
	snap, err := e.reground(ctx, tip, h)
	if err != nil {
		return nil, fmt.Errorf("core: recover %s: ground v%d: %w", dir, tip, err)
	}
	e.current.Store(snap)
	e.sinceCompact = len(suffix)
	if collapse {
		e.finishCompact(tip)
	}
	log, err := d.Reopen(logOptions(cfg.Durability))
	if err != nil {
		return nil, fmt.Errorf("core: recover %s: reopen log: %w", dir, err)
	}
	e.dur = &durable{dir: dir, name: d.Name, every: cfg.Durability.CheckpointEvery, keep: cfg.Durability.KeepCheckpoints, log: log, sinceCP: len(suffix)}
	if obs.On() {
		mRecoverRecords.Add(int64(len(suffix)))
		mRecoverMs.Add(time.Since(start).Milliseconds())
		mVersion.Set(int64(e.Current().Version()))
	}
	if e.trace.Enabled() {
		e.trace.Emit(obs.E("recover",
			obs.F("dir", dir),
			obs.F("checkpoint", cp.Version),
			obs.F("replayed", len(suffix)),
			obs.F("version", e.Current().Version())))
	}
	return e, nil
}

// Verify checks dir as strictly as `ordlog wal verify` promises: a strict
// wal.Open (every frame, the chain, every checkpoint consistent with it,
// no torn tail), then every checkpoint's program folded with the records
// after it as Recover folds them. So a directory verifies only if
// recovery from each of its checkpoints would succeed.
func Verify(dir string) (*wal.VerifyResult, error) {
	d, err := wal.Open(dir, true)
	if err != nil {
		return nil, err
	}
	for i := range d.Checkpoints {
		if _, err := replayWAL(&d.Checkpoints[i], d.After(&d.Checkpoints[i])); err != nil {
			return nil, err
		}
	}
	return d.Summary(), nil
}
