package core

import (
	"context"
	"fmt"
	"os"
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
// engine: the directory is created, any previous WAL state in it is
// removed (NewEngineCtx means "this program is the new genesis" — Recover is
// the path that restores a history), a genesis checkpoint of the source
// program is written, and the log is opened. The checkpoint write doubles
// as the writability probe the config contract promises: an unusable
// directory surfaces as a *ConfigError from NewEngineCtx.
func (e *Engine) initDurability() error {
	d := e.cfg.Durability
	fail := func(err error) error {
		return &ConfigError{Field: "Durability.Dir", Value: d.Dir, Reason: err.Error()}
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return fail(err)
	}
	if err := wal.Reset(d.Dir); err != nil {
		return fail(err)
	}
	genesis := wal.Genesis(d.Name)
	cp := &wal.Checkpoint{Name: d.Name, Version: e.base, Seq: 0, ChainHead: genesis, Program: e.src.String()}
	if err := wal.WriteCheckpoint(d.Dir, cp); err != nil {
		return fail(err)
	}
	log, err := wal.OpenLogWith(d.Dir, genesis, 0, logOptions(d))
	if err != nil {
		return fail(err)
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

// walCheckpoint writes a snapshot checkpoint when the cadence is due.
// Called under writeMu after the child snapshot is published; the log is
// synced first so the checkpoint never claims records the log could lose.
// On error the update itself has been applied and logged — only the
// checkpoint (a pure replay-length optimisation) is missing.
func (e *Engine) walCheckpoint(child *Snapshot) error {
	d := e.dur
	if d == nil {
		return nil
	}
	d.sinceCP++
	if d.sinceCP < d.every {
		return nil
	}
	if err := d.log.Sync(); err != nil {
		return err
	}
	eff, err := e.hist.program() // the tip's, which child is
	if err != nil {
		return err
	}
	seq, head := d.log.Head()
	cp := &wal.Checkpoint{Name: d.name, Version: child.version, Seq: seq, ChainHead: head, Program: eff.String()}
	if err := wal.WriteCheckpoint(d.dir, cp); err != nil {
		return err
	}
	d.sinceCP = 0
	// Retention: drop checkpoints past the bound, then every segment the
	// oldest surviving checkpoint covers. Ordered this way a crash between
	// the two passes leaves extra segments, never a chain without its
	// anchor; pruning nothing when keep is 0 is the legacy layout.
	if d.keep > 0 {
		_, oldest, err := wal.PruneCheckpoints(d.dir, d.keep)
		if err != nil {
			return err
		}
		if _, err := wal.PruneSegments(d.dir, oldest); err != nil {
			return err
		}
	}
	return nil
}

// replayWAL reads the history a checkpoint and the WAL records after it
// log: the checkpoint's program, with one event per logged fact folded
// into its index, stamped with its record's version. It is the one reader
// of the WAL behind Recover and AsOf-from-disk. Anything the engine could
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

// Recover rebuilds a durable engine from dir: load the newest checkpoint
// consistent with the surviving log, verify the hash chain across every
// surviving record, and fold the WAL suffix past the checkpoint into its
// program. A version's models depend only on its effective program, not
// on the history that built it, so the recovered tip is grounded once —
// through the same effective-program reground that fallbacks, compaction
// and AsOf use — whatever the suffix's length and whatever its records
// would have cost one by one. A torn final record — the artifact of a
// crash mid-append — is truncated away; any other CRC or chain damage, and
// any record that does not change the state it is folded into, aborts
// recovery with an error wrapping wal.ErrCorrupt.
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
	cps, err := wal.Checkpoints(dir)
	if err != nil {
		return nil, fmt.Errorf("core: recover %s: %w", dir, err)
	}
	if len(cps) == 0 {
		return nil, fmt.Errorf("core: recover %s: no checkpoint (not a durability directory)", dir)
	}
	name := cps[0].Name
	for _, cp := range cps {
		if cp.Name != name {
			return nil, fmt.Errorf("%w: recover %s: checkpoints disagree on tenant name (%q vs %q)", wal.ErrCorrupt, dir, name, cp.Name)
		}
	}
	if cfg.Durability.Name == "" {
		cfg.Durability.Name = name
	} else if cfg.Durability.Name != name {
		return nil, &ConfigError{Field: "Durability.Name", Value: cfg.Durability.Name, Reason: fmt.Sprintf("directory %s belongs to %q", dir, name)}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	genesis := wal.Genesis(name)
	res, err := wal.ReadAll(dir, genesis, false)
	if err != nil {
		return nil, fmt.Errorf("core: recover %s: %w", dir, err)
	}
	if res.Torn {
		if err := os.Truncate(res.TornPath, res.TornGood); err != nil {
			return nil, fmt.Errorf("core: recover %s: truncate torn tail: %w", dir, err)
		}
	}
	// The chain may start past seq 1 when retention pruned covered
	// segments; seq positions are relative to res.First, and the hash at
	// the pruned boundary is adopted from the first surviving record
	// (authenticated below by requiring a checkpoint that matches it).
	first := res.First
	lastSeq := first - 1 + uint64(len(res.Records))
	anchor := ""
	switch {
	case first == 1:
		anchor = genesis
	case len(res.Records) > 0:
		anchor = res.Records[0].Prev
	}
	hashAt := func(seq uint64) string {
		if seq == first-1 {
			return anchor
		}
		return res.Records[seq-first].Hash
	}
	// Newest checkpoint consistent with the surviving log. A checkpoint can
	// outrun the log when the crash lost unsynced records written after it
	// was taken; falling back to an earlier one re-replays them from the
	// log... which lost them too, so state and log agree again. A
	// checkpoint below the pruned horizon is unusable either way: the
	// records it would replay are gone.
	var cp *wal.Checkpoint
	consistent := func(c *wal.Checkpoint) bool {
		if c.Seq < first-1 || c.Seq > lastSeq {
			return false
		}
		if anchor == "" && c.Seq == first-1 {
			// Everything but an empty final segment was pruned: the
			// checkpoint's own head is the only witness of the chain state.
			return true
		}
		return c.ChainHead == hashAt(c.Seq)
	}
	for i := len(cps) - 1; i >= 0; i-- {
		if consistent(&cps[i]) {
			cp = &cps[i]
			break
		}
	}
	if cp == nil {
		return nil, fmt.Errorf("%w: recover %s: no checkpoint is consistent with the log", wal.ErrCorrupt, dir)
	}
	// Prune checkpoints describing state the crash destroyed (they claim
	// records beyond the surviving log): recovery re-takes checkpoints as
	// updates resume, and a pruned directory passes `wal verify` again.
	for i := range cps {
		if consistent(&cps[i]) {
			continue
		}
		if err := wal.RemoveCheckpoint(dir, cps[i].Version); err != nil {
			return nil, fmt.Errorf("core: recover %s: prune stale checkpoint v%d: %w", dir, cps[i].Version, err)
		}
	}
	// Indexing is relative to the pruned horizon — cp.Seq records precede
	// the checkpoint, of which first-1 are no longer on disk.
	suffix := res.Records[cp.Seq-(first-1):]
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
	head := hashAt(lastSeq)
	if head == "" {
		head = cp.ChainHead
	}
	log, err := wal.OpenLogWith(dir, head, lastSeq, logOptions(cfg.Durability))
	if err != nil {
		return nil, fmt.Errorf("core: recover %s: reopen log: %w", dir, err)
	}
	e.dur = &durable{dir: dir, name: name, every: cfg.Durability.CheckpointEvery, keep: cfg.Durability.KeepCheckpoints, log: log, sinceCP: len(suffix)}
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
