package core

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// Compaction bounds what incremental updates let accumulate: retracted
// instances carried as per-version dead sets over the pinned prefix, and
// the replayed update history (Snapshot.log) that grows by one event per
// changed fact forever. A compaction re-grounds the effective program —
// the same rebuild the reground fallback performs — so the new snapshot
// starts with an empty dead set and a fresh prefix, and collapses the
// carried history to its net effect (history.collapsed: the last event
// per fact), which is what lets the history stay bounded by the number of
// distinct facts ever touched rather than by the number of updates.
//
// The price is time travel: intermediate versions that only the full
// history could reconstruct are forgotten, so the engine's memBase
// advances to the compacted version and AsOf reads below it fall through
// to the WAL (or ErrVersionEvicted on a memory-only engine). See DESIGN
// §14 for the full story.

// needsCompact reports whether publishing a version with dead of its rules
// instances retracted would cross a compaction threshold. Called under
// writeMu before the version is published.
func (e *Engine) needsCompact(dead, rules int) bool {
	if e.cfg.CompactEvery > 0 && e.sinceCompact+1 >= e.cfg.CompactEvery {
		return true
	}
	return e.cfg.CompactRatio > 0 && rules > 0 && float64(dead)/float64(rules) >= e.cfg.CompactRatio
}

// rebuild grounds the effective program of h into a fresh snapshot at
// version: the one rebuild behind the reground fallback, threshold
// compaction and Engine.Compact. With compact it first collapses the
// history to its net effect, and on success counts the run, with the dead
// instances of the version it replaces as drained. It returns the history
// the snapshot carries, which the caller installs when it publishes.
func (e *Engine) rebuild(ctx context.Context, version uint64, h *history, dead int, compact bool) (*Snapshot, *history, error) {
	full := len(h.log)
	if compact {
		h = h.collapsed()
	}
	s, err := e.reground(ctx, version, h)
	if err != nil || !compact {
		return s, h, err
	}
	if obs.On() {
		mCompactRuns.Inc()
		mCompactDead.Add(int64(dead))
		mCompactCollapsed.Add(int64(full - len(h.log)))
	}
	return s, h, nil
}

// finishCompact records the bookkeeping of a successful compaction:
// the in-memory history now reconstructs nothing older than version.
// Callers run it before publishing the compacted snapshot: AsOf loads the
// current snapshot, then memBase, so a reader that sees the collapsed
// history also sees the raised floor.
func (e *Engine) finishCompact(version uint64) {
	e.sinceCompact = 0
	e.memBase.Store(version)
}

// Compact forces a compaction of the current snapshot without publishing
// a new version: the state is republished at the same version with an
// empty dead set, a fresh instance prefix and a collapsed history. It is
// the explicit form of the CompactEvery/CompactRatio triggers — useful
// before a long read-mostly phase, and for tests. No WAL record is
// written (the logical state is unchanged); AsOf reads below the current
// version subsequently go through the WAL, exactly as after an automatic
// compaction. Returns the republished snapshot.
func (e *Engine) Compact(ctx context.Context) (*Snapshot, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	parent := e.Current()
	child, h, err := e.rebuild(ctx, parent.version, e.hist, len(parent.dead), true)
	if err != nil {
		return nil, fmt.Errorf("core: compact v%d: %w", parent.version, err)
	}
	e.finishCompact(child.version)
	e.hist = h
	e.current.Store(child)
	if e.trace.Enabled() {
		e.trace.Emit(obs.E("compact",
			obs.F("version", child.version),
			obs.F("dead_dropped", len(parent.dead)),
			obs.F("events_collapsed", len(parent.log)-len(child.log))))
	}
	return child, nil
}
