package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/wal"
)

// asOfCacheSize bounds the engine's FIFO cache of AsOf-materialised
// snapshots. Time-travel reads cluster on a few versions (a client
// pinning an audit point); eight distinct versions in flight covers that
// without letting a version scan hold every reconstruction alive.
const asOfCacheSize = 8

// AsOfCtx returns a snapshot of the engine's state as of a past version —
// the first-class time-travel read. Three sources, tried in order: the
// current snapshot (free), the engine's in-memory update history (any
// version back to the engine's initial grounding, rebuilt through the
// effective-program path), and — on a durable engine — the WAL on disk
// (versions before the recovered checkpoint). Failures are typed:
// ErrVersionUnknown for versions never published (ahead of the tip),
// ErrVersionEvicted for versions that predate every reachable source.
//
// The returned snapshot answers queries exactly as the engine did at that
// version, but it is a read-only reconstruction: it belongs to a private
// replay engine, so updating through its Engine() does not advance this
// engine. Reconstructions are cached (small FIFO), so repeated reads of
// the same version pay the rebuild once. The context interrupts the
// reconstruction's grounding phase.
func (e *Engine) AsOfCtx(ctx context.Context, version uint64) (*Snapshot, error) {
	cur := e.Current()
	if version == cur.Version() {
		return cur, nil
	}
	if version > cur.Version() {
		return nil, fmt.Errorf("%w: v%d is ahead of current v%d", ErrVersionUnknown, version, cur.Version())
	}
	if s := e.asOfCached(version); s != nil {
		return s, nil
	}
	var snap *Snapshot
	var err error
	switch {
	case version >= e.memBase.Load():
		// The floor starts at the engine's base and rises with every
		// compaction: a collapsed history only reconstructs versions at or
		// after the compact point, older ones must come from the WAL.
		snap, err = e.asOfFromMemory(ctx, cur, version)
	case e.dur != nil:
		snap, err = e.asOfFromDisk(ctx, version)
	default:
		return nil, fmt.Errorf("%w: v%d predates the reconstructible history (no durability configured)", ErrVersionEvicted, version)
	}
	if err != nil {
		return nil, err
	}
	e.asOfStore(version, snap)
	return snap, nil
}

// asOfFromMemory rebuilds a version from the in-memory update history:
// the prefix of the current snapshot's log up to the requested version
// (events are in version order), replayed over the engine's source
// program. The prefix is capped at its length, so a write through the
// reconstruction's engine appends to a copy, never into this history.
func (e *Engine) asOfFromMemory(ctx context.Context, cur *Snapshot, version uint64) (*Snapshot, error) {
	n := sort.Search(len(cur.log), func(i int) bool { return cur.log[i].ver > version })
	return e.materializeAsOf(ctx, replay(e.src, cur.log[:n:n]), version)
}

// asOfFromDisk rebuilds a version older than the engine's in-memory
// floor from the WAL: the newest consistent checkpoint at or before it
// (wal.Dir.Newest), plus the log records up to it. Only durable engines
// get here. A version older than every consistent checkpoint — never
// checkpointed, or pruned with its records by retention — is
// ErrVersionEvicted; a directory recovery would refuse is ErrCorrupt here
// too.
func (e *Engine) asOfFromDisk(ctx context.Context, version uint64) (*Snapshot, error) {
	d, err := wal.Open(e.dur.dir, false)
	if err != nil {
		return nil, fmt.Errorf("core: as-of v%d: %w", version, err)
	}
	if d.Name != e.dur.name {
		return nil, fmt.Errorf("%w: as-of v%d: %s belongs to %q", wal.ErrCorrupt, version, e.dur.dir, d.Name)
	}
	cp := d.Newest(version)
	if cp == nil {
		return nil, fmt.Errorf("%w: v%d predates the oldest checkpoint", ErrVersionEvicted, version)
	}
	recs := d.After(cp)
	if n := version - cp.Version; uint64(len(recs)) > n {
		recs = recs[:n]
	}
	h, err := replayWAL(cp, recs)
	if err != nil {
		return nil, fmt.Errorf("core: as-of v%d: %w", version, err)
	}
	return e.materializeAsOf(ctx, h, version)
}

// materializeAsOf grounds the effective program of h in a private
// throwaway engine whose snapshot carries the requested version. The
// engine copies this engine's evaluation config but drops durability (a
// reconstruction must never write to the WAL) and tracing.
func (e *Engine) materializeAsOf(ctx context.Context, h *history, version uint64) (*Snapshot, error) {
	cfg := e.cfg
	cfg.Durability = Durability{}
	cfg.Trace = nil
	sub := newEngine(h, cfg, version)
	snap, err := sub.reground(ctx, version, h)
	if err != nil {
		return nil, fmt.Errorf("core: as-of v%d: %w", version, err)
	}
	sub.current.Store(snap)
	return snap, nil
}

func (e *Engine) asOfCached(version uint64) *Snapshot {
	e.asOfMu.Lock()
	defer e.asOfMu.Unlock()
	return e.asOfCache[version]
}

func (e *Engine) asOfStore(version uint64, s *Snapshot) {
	e.asOfMu.Lock()
	defer e.asOfMu.Unlock()
	if e.asOfCache == nil {
		e.asOfCache = make(map[uint64]*Snapshot, asOfCacheSize)
	}
	if _, ok := e.asOfCache[version]; ok {
		return
	}
	e.asOfCache[version] = s
	e.asOfOrder = append(e.asOfOrder, version)
	if len(e.asOfOrder) > asOfCacheSize {
		delete(e.asOfCache, e.asOfOrder[0])
		e.asOfOrder = e.asOfOrder[1:]
	}
}
