package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/ground"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Config configures an Engine.
//
// The zero value is valid and means: default grounding options, no
// enumeration budget override and no tracing. Invalid configurations
// (negative counts, unknown grounding mode) are rejected by NewEngineCtx with
// a *ConfigError rather than silently replaced by defaults.
type Config struct {
	// Ground selects grounding mode, depth bound and budgets. The zero
	// value means ground.DefaultOptions().
	Ground ground.Options

	// EnumBudget, when positive, is the default leaf budget for stable and
	// assumption-free model enumeration whenever the per-call
	// stable.Options leave MaxLeaves zero. Zero keeps the enumerator's own
	// default.
	EnumBudget int

	// Trace, when non-nil, receives one line per engine lifecycle event:
	// grounding, snapshot updates (incremental or reground) and least-model
	// computations. Writes are serialised by the engine; the writer itself
	// need not be concurrency-safe.
	Trace io.Writer

	// GoalDirected routes least-model queries and proofs through per-goal
	// slices of the snapshot's ground program: QueryCtx (and the batch
	// entry point) with a non-empty body, and ProveCtx (the one-literal
	// goal), evaluate only the instances the goal's atoms reach — cut from
	// the grounding the snapshot already holds, nothing is grounded again
	// — instead of the component's full least model. Answers are identical
	// to the full path's (see DESIGN §12); slices are cached per snapshot
	// in a small LRU keyed by the goal's binding pattern, so repeated goals
	// reuse their slice and every update invalidates automatically. A goal
	// that misses the cache answers from the component's least model
	// instead once that model is computed for the version, or once the
	// version's misses have cut as many instances as the component sees:
	// past that break-even a model costs less than further cuts (goal.go).
	// Proofs route as queries do. Which model a goal reads is the only
	// difference: on either engine the model keeps the answer sets it
	// produced, so a repeated query is a lookup (query.go). Enumeration
	// entry points (stable/AF models, ReasonCtx) and ProveExplainCtx
	// always use the full grounding. Incompatible with a fixed Ground.Goal.
	GoalDirected bool

	// CompactEvery, when > 0, compacts the snapshot after this many
	// published updates since the last compaction: the writer path
	// re-grounds the effective program into a fresh instance prefix with
	// an empty dead set and a collapsed update history, and advances the
	// floor below which AsOf reads go to the WAL instead of the in-memory
	// history. Updates that fall back to a reground anyway compact in
	// place when they cross the cadence — the collapse rides the rebuild
	// for free. 0 never compacts by count. See DESIGN §14.
	CompactEvery int

	// CompactRatio, when > 0, compacts as soon as the fraction of dead
	// (retracted-but-carried) rule instances in the snapshot's pinned
	// prefix reaches the ratio — the trigger that bounds memory under
	// sustained assert/retract churn. 0 never compacts by ratio.
	CompactRatio float64

	// Durability, when its Dir is non-empty, makes the engine durable: every
	// Update/Retract batch is appended to a hash-chained write-ahead log in
	// Dir before its snapshot is published, with periodic checkpoints so
	// recovery (core.Recover) replays only a log suffix. See the Durability
	// type and DESIGN §13. The zero value keeps the engine memory-only.
	Durability Durability
}

// DefaultCheckpointEvery is the checkpoint cadence WithDurability presets:
// one snapshot checkpoint per this many logged update batches.
const DefaultCheckpointEvery = 256

// Durability configures the opt-in write-ahead log of one engine.
//
// Snapshot contract: with a non-empty Dir, Update/Retract appends the
// batch's effective operations to the WAL — fsynced per Sync — before the
// new snapshot becomes visible, so every version an observer can read is
// reconstructible by Recover. NewEngineCtx resets Dir to an empty history
// (the engine's program is the new genesis); Recover is the path that
// restores one. Every CheckpointEvery appended batches the engine syncs
// the log and writes a checkpoint (serialized effective program + version
// + chain head), bounding replay length. Invalid combinations — a
// checkpoint interval <= 0 with durability on, Sync or CheckpointEvery
// without a Dir, an unwritable Dir — are rejected with a *ConfigError.
type Durability struct {
	// Dir is the durability directory (one engine/tenant per directory).
	// Empty means memory-only.
	Dir string

	// Name seeds the SHA-256 hash chain (wal.Genesis), so logs of two
	// named tenants can never be swapped undetected. Empty means the
	// anonymous genesis seed.
	Name string

	// CheckpointEvery is the number of logged batches between snapshot
	// checkpoints. WithDurability presets DefaultCheckpointEvery; an
	// explicit value must be >= 1 when durability is on.
	CheckpointEvery int

	// Sync is the fsync policy: wal.SyncInterval (default; background
	// flush every wal.FlushInterval) or wal.SyncAlways (fsync inside
	// every update).
	Sync wal.SyncPolicy

	// RotateRecords, when > 0, rotates the log to a fresh segment once
	// the active one holds this many records; RotateBytes, when > 0,
	// rotates by segment size (see wal.LogOptions). 0/0 keeps the legacy
	// single-file layout.
	RotateRecords int
	RotateBytes   int64

	// KeepCheckpoints, when > 0, bounds the on-disk footprint: after each
	// checkpoint only the newest KeepCheckpoints checkpoint files are
	// retained, and every log segment wholly covered by the oldest
	// retained checkpoint is deleted. AsOf reads below the pruned horizon
	// then fail with ErrVersionEvicted. 0 keeps everything (the legacy
	// unbounded layout).
	KeepCheckpoints int
}

// Option is a functional engine option applied on top of a Config by
// NewEngineCtx. Options and an explicit Config compose: the Config is copied,
// then each Option mutates the copy in order.
type Option func(*Config)

// WithEnumBudget sets Config.EnumBudget.
func WithEnumBudget(n int) Option { return func(c *Config) { c.EnumBudget = n } }

// WithTrace sets Config.Trace.
func WithTrace(w io.Writer) Option { return func(c *Config) { c.Trace = w } }

// WithDurability turns on the write-ahead log in dir and, when no cadence
// has been chosen yet, presets Durability.CheckpointEvery to
// DefaultCheckpointEvery. Compose with WithCheckpointEvery / WithSync /
// WithDurableName to tune; see the Durability type for the contract.
func WithDurability(dir string) Option {
	return func(c *Config) {
		c.Durability.Dir = dir
		if c.Durability.CheckpointEvery == 0 {
			c.Durability.CheckpointEvery = DefaultCheckpointEvery
		}
	}
}

// WithCheckpointEvery sets Durability.CheckpointEvery: the number of
// logged update batches between snapshot checkpoints. Requires
// WithDurability; values <= 0 are rejected by validation.
func WithCheckpointEvery(n int) Option { return func(c *Config) { c.Durability.CheckpointEvery = n } }

// WithSync sets Durability.Sync, the WAL fsync policy. Requires
// WithDurability.
func WithSync(p wal.SyncPolicy) Option { return func(c *Config) { c.Durability.Sync = p } }

// WithDurableName sets Durability.Name, the hash-chain genesis seed.
// Requires WithDurability.
func WithDurableName(name string) Option { return func(c *Config) { c.Durability.Name = name } }

// WithCompactEvery sets Config.CompactEvery: compact the snapshot after
// this many published updates since the last compaction (0 = never by
// count).
func WithCompactEvery(n int) Option { return func(c *Config) { c.CompactEvery = n } }

// WithCompactRatio sets Config.CompactRatio: compact once the dead
// fraction of the pinned instance prefix reaches r (0 = never by ratio).
func WithCompactRatio(r float64) Option { return func(c *Config) { c.CompactRatio = r } }

// WithRotateRecords sets Durability.RotateRecords, the per-segment record
// cap. Requires WithDurability.
func WithRotateRecords(n int) Option { return func(c *Config) { c.Durability.RotateRecords = n } }

// WithRotateBytes sets Durability.RotateBytes, the per-segment size cap.
// Requires WithDurability.
func WithRotateBytes(n int64) Option { return func(c *Config) { c.Durability.RotateBytes = n } }

// WithKeepCheckpoints sets Durability.KeepCheckpoints, the checkpoint
// retention bound driving segment pruning (0 = keep everything).
// Requires WithDurability.
func WithKeepCheckpoints(n int) Option { return func(c *Config) { c.Durability.KeepCheckpoints = n } }

// ConfigError reports an invalid Config field. It is returned (wrapped in
// nothing) by NewEngineCtx, so callers can errors.As for it and inspect which
// field was rejected instead of parsing a message.
type ConfigError struct {
	Field  string
	Value  any
	Reason string
}

// Error implements the error interface.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid config: %s = %v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks the configuration and returns a *ConfigError for the
// first invalid field, nil otherwise.
func (c *Config) Validate() error {
	if c.EnumBudget < 0 {
		return &ConfigError{Field: "EnumBudget", Value: c.EnumBudget, Reason: "must be >= 0 (0 = enumerator default)"}
	}
	g := c.Ground
	if g.Mode != ground.ModeSmart && g.Mode != ground.ModeFull {
		return &ConfigError{Field: "Ground.Mode", Value: int(g.Mode), Reason: "unknown grounding mode"}
	}
	if g.MaxDepth < -1 {
		return &ConfigError{Field: "Ground.MaxDepth", Value: g.MaxDepth, Reason: "must be >= -1 (-1 = deepest program term)"}
	}
	if g.MaxUniverse < 0 {
		return &ConfigError{Field: "Ground.MaxUniverse", Value: g.MaxUniverse, Reason: "must be >= 0 (0 = default budget)"}
	}
	if g.MaxAtoms < 0 {
		return &ConfigError{Field: "Ground.MaxAtoms", Value: g.MaxAtoms, Reason: "must be >= 0 (0 = default budget)"}
	}
	if g.MaxInstances < 0 {
		return &ConfigError{Field: "Ground.MaxInstances", Value: g.MaxInstances, Reason: "must be >= 0 (0 = default budget)"}
	}
	if c.GoalDirected && len(g.Goal) > 0 {
		return &ConfigError{Field: "GoalDirected", Value: true, Reason: "incompatible with a fixed Ground.Goal (the engine slices per query)"}
	}
	if c.CompactEvery < 0 {
		return &ConfigError{Field: "CompactEvery", Value: c.CompactEvery, Reason: "must be >= 0 (0 = never compact by count)"}
	}
	if c.CompactRatio < 0 || c.CompactRatio > 1 {
		return &ConfigError{Field: "CompactRatio", Value: c.CompactRatio, Reason: "must be in [0, 1] (0 = never compact by ratio)"}
	}
	d := c.Durability
	if d.Dir == "" {
		if d.CheckpointEvery != 0 {
			return &ConfigError{Field: "Durability.CheckpointEvery", Value: d.CheckpointEvery, Reason: "needs WithDurability (no durability directory configured)"}
		}
		if d.Sync != wal.SyncInterval {
			return &ConfigError{Field: "Durability.Sync", Value: d.Sync, Reason: "needs WithDurability (no durability directory configured)"}
		}
		if d.Name != "" {
			return &ConfigError{Field: "Durability.Name", Value: d.Name, Reason: "needs WithDurability (no durability directory configured)"}
		}
		if d.RotateRecords != 0 {
			return &ConfigError{Field: "Durability.RotateRecords", Value: d.RotateRecords, Reason: "needs WithDurability (no durability directory configured)"}
		}
		if d.RotateBytes != 0 {
			return &ConfigError{Field: "Durability.RotateBytes", Value: d.RotateBytes, Reason: "needs WithDurability (no durability directory configured)"}
		}
		if d.KeepCheckpoints != 0 {
			return &ConfigError{Field: "Durability.KeepCheckpoints", Value: d.KeepCheckpoints, Reason: "needs WithDurability (no durability directory configured)"}
		}
	} else {
		if d.CheckpointEvery < 1 {
			return &ConfigError{Field: "Durability.CheckpointEvery", Value: d.CheckpointEvery, Reason: "must be >= 1 with durability on (WithDurability presets the default)"}
		}
		if d.Sync != wal.SyncInterval && d.Sync != wal.SyncAlways {
			return &ConfigError{Field: "Durability.Sync", Value: d.Sync, Reason: "unknown sync policy (want wal.SyncInterval or wal.SyncAlways)"}
		}
		if d.RotateRecords < 0 {
			return &ConfigError{Field: "Durability.RotateRecords", Value: d.RotateRecords, Reason: "must be >= 0 (0 = never rotate by count)"}
		}
		if d.RotateBytes < 0 {
			return &ConfigError{Field: "Durability.RotateBytes", Value: d.RotateBytes, Reason: "must be >= 0 (0 = never rotate by size)"}
		}
		if d.KeepCheckpoints < 0 {
			return &ConfigError{Field: "Durability.KeepCheckpoints", Value: d.KeepCheckpoints, Reason: "must be >= 0 (0 = keep all checkpoints)"}
		}
	}
	return nil
}

// tracer renders structured obs.Event values to the engine's Trace writer
// in the historical line format ("name: k=v k=v"). The mutex serialises
// writes across all goroutines of one engine; the enabled flag is an
// atomic so hot paths can skip event construction — fields, boxing and
// all — with a single atomic load when no writer is configured.
type tracer struct {
	mu      sync.Mutex
	w       io.Writer
	enabled atomic.Bool
}

func newTracer(w io.Writer) *tracer {
	t := &tracer{w: w}
	t.enabled.Store(w != nil)
	return t
}

// Enabled reports whether Emit would write anything. Call sites gate
// event construction on it so a nil-trace engine pays one atomic load
// and zero allocations per would-be event.
func (t *tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Emit writes one event line. Events are constructed by the caller only
// after an Enabled check.
func (t *tracer) Emit(ev obs.Event) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(t.w, "%s\n", ev.String())
}
