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
// carried history to its net effect (the last event per fact), which is
// what lets the history stay bounded by the number of distinct facts
// ever touched rather than by the number of updates.
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

// rebuild grounds the effective program of log into a fresh snapshot at
// version: the one rebuild behind the reground fallback, threshold
// compaction and Engine.Compact. With compact it first collapses the
// history to its net effect, and on success counts the run, with the dead
// instances of the version it replaces as drained.
func (e *Engine) rebuild(ctx context.Context, version uint64, log []factEvent, dead int, compact bool) (*Snapshot, error) {
	collapsed := log
	if compact {
		collapsed = collapseLog(log)
	}
	s, err := e.reground(ctx, version, collapsed)
	if err != nil || !compact {
		return s, err
	}
	if obs.On() {
		mCompactRuns.Inc()
		mCompactDead.Add(int64(dead))
		mCompactCollapsed.Add(int64(len(log) - len(collapsed)))
	}
	return s, nil
}

// finishCompact records the bookkeeping of a successful compaction:
// the in-memory history now reconstructs nothing older than version.
func (e *Engine) finishCompact(version uint64) {
	e.sinceCompact = 0
	e.memBase.Store(version)
}

// collapseLog reduces an update history to the last event per
// (component, fact), preserving the order of those surviving events.
// Replaying the collapsed history through effectiveProgram yields the
// same rule set as the full history — per fact only the final
// assert/retract decides presence, and rule order within a component
// does not affect the semantics — so a compacted snapshot answers every
// query identically. The result is always a fresh slice.
func collapseLog(log []factEvent) []factEvent {
	last := make(map[factKey]int, len(log))
	for i, ev := range log {
		last[ev.key()] = i
	}
	out := make([]factEvent, 0, len(last))
	for i, ev := range log {
		if last[ev.key()] == i {
			out = append(out, ev)
		}
	}
	return out
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
	child, err := e.rebuild(ctx, parent.version, parent.log, len(parent.dead), true)
	if err != nil {
		return nil, fmt.Errorf("core: compact v%d: %w", parent.version, err)
	}
	e.current.Store(child)
	e.finishCompact(child.version)
	if e.trace.Enabled() {
		e.trace.Emit(obs.E("compact",
			obs.F("version", child.version),
			obs.F("dead_dropped", len(parent.dead)),
			obs.F("events_collapsed", len(parent.log)-len(child.log))))
	}
	return child, nil
}
