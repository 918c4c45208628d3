// Package wal is the engine's durability layer: an append-only,
// length-prefixed, CRC-guarded write-ahead log of update/retract batches
// whose records form a SHA-256 hash chain (genesis-seeded per tenant),
// plus snapshot checkpoints so recovery never replays the full history.
//
// On-disk layout of one durability directory (one engine/tenant each):
//
//	wal.log                   head segment (records from seq 1), append-only
//	wal-<first-seq>.log       later segments, rotated off by size/count
//	checkpoint-<version>.json serialized effective program + chain head
//
// The log is a chain of segments: the legacy single-file wal.log is the
// segment holding records from seq 1, and every rotation finalises the
// active segment (fsync) before opening wal-<next-seq>.log, so only the
// final segment can ever carry a torn tail. The hash chain runs across
// segment boundaries unchanged — the first record of each segment carries
// the Prev of its predecessor's last record — and retention may delete
// whole prefix segments once a checkpoint covers them, in which case the
// surviving chain is anchored at that checkpoint's recorded head.
//
// Record framing is [4-byte big-endian payload length][4-byte IEEE CRC32
// of the payload][JSON payload]. Each record carries the hash of its
// predecessor (Prev) and its own hash over Prev plus every logical field
// (Hash), so any byte flip breaks either the CRC (payload damage) or the
// chain (record replaced wholesale), and truncating anywhere but the tail
// breaks the chain of the first surviving successor. The chain is seeded
// by Genesis(name) so two tenants' logs can never be swapped silently.
//
// A crash can only tear the final record (appends are single writes to an
// O_APPEND file): Decode in tolerant mode reports such a tail via Torn
// and drops it, while strict mode (used by `ordlog wal verify`) treats
// every CRC/chain failure — tail included — as corruption.
//
// Checkpoints are written atomically (temp file, fsync, rename) and carry
// the rendered effective program text at a version together with the
// record count (Seq) and chain head at that point.
//
// Open is the one reader of a directory and decides how its files fit
// together, so recovery, AsOf from disk, `ordlog wal verify` and daemon
// boot, thin policies over it, give one verdict on the same bytes. Create
// and Log.Checkpoint are the write side.
package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

const (
	// LogName is the record file inside a durability directory.
	LogName = "wal.log"

	// MaxRecordBytes bounds one record's payload; a longer length prefix
	// is treated as corruption, which keeps the decoder from allocating
	// attacker-controlled amounts on a damaged file.
	MaxRecordBytes = 16 << 20

	frameHeader = 8

	// FlushInterval is how often the SyncInterval background flusher
	// fsyncs a dirty log.
	FlushInterval = 100 * time.Millisecond
)

// SyncPolicy selects when appended records are fsynced. The zero value is
// SyncInterval: cheap appends, a background flusher bounding data loss to
// roughly FlushInterval. SyncAlways fsyncs inside every Append — no
// acknowledged record is ever lost, at the price of one fsync per update.
type SyncPolicy int

const (
	SyncInterval SyncPolicy = iota
	SyncAlways
)

// String renders the policy in the -sync flag vocabulary.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -sync flag vocabulary ("always", "interval").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always or interval)", s)
	}
}

// ErrCorrupt wraps every decode/verify failure that is not a recoverable
// torn tail: CRC mismatch before the tail, broken hash chain, impossible
// length prefix, checkpoint inconsistency.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrClosed reports an append to a closed (or write-failed) log.
var ErrClosed = errors.New("wal: log closed")

// Record is one durable update/retract batch. Facts are the rendered
// ground literals exactly as the engine applied them — each one changed
// the state — so folding them into the predecessor's effective program
// reproduces the version transition.
type Record struct {
	Seq     uint64   `json:"seq"`     // 1-based position in the log
	Version uint64   `json:"version"` // snapshot version the batch produced
	Op      string   `json:"op"`      // "assert" | "retract"
	Comp    string   `json:"comp"`    // component name
	Facts   []string `json:"facts"`   // rendered ground literals
	Prev    string   `json:"prev"`    // hex hash of the predecessor (genesis for Seq 1)
	Hash    string   `json:"hash"`    // hex hash over Prev + all chained fields
}

// Genesis returns the per-tenant seed of the hash chain: the Prev of the
// first record and the chain head of an empty log.
func Genesis(name string) string {
	h := sha256.Sum256([]byte("ordlog-wal-genesis\x00" + name))
	return hex.EncodeToString(h[:])
}

// ChainHash computes the record's chain hash: SHA-256 over Prev and every
// logical field (Seq, Version, Op, Comp, Facts), NUL-separated so field
// boundaries cannot be shifted without changing the digest.
func (r *Record) ChainHash() string {
	h := sha256.New()
	io.WriteString(h, r.Prev)
	fmt.Fprintf(h, "\x00%d\x00%d\x00%s\x00%s\x00%d", r.Seq, r.Version, r.Op, r.Comp, len(r.Facts))
	for _, f := range r.Facts {
		io.WriteString(h, "\x00")
		io.WriteString(h, f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeFrame renders a record into its on-disk frame.
func encodeFrame(r *Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("wal: encode record %d: %w", r.Seq, err)
	}
	if len(payload) > MaxRecordBytes {
		return nil, fmt.Errorf("wal: record %d payload %d bytes exceeds limit %d", r.Seq, len(payload), MaxRecordBytes)
	}
	buf := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeader:], payload)
	return buf, nil
}

// DecodeResult is the outcome of decoding one log.
type DecodeResult struct {
	Records []Record
	// Good is the byte offset just past the last intact record: the
	// truncation point recovery applies when Torn is set.
	Good int64
	// Torn reports a trailing partial or damaged record — the shape a
	// crash mid-append leaves — dropped by a tolerant decode.
	Torn bool
}

// decodeFrom parses one segment image whose first record is expected at
// sequence firstSeq. prev is the chain hash preceding that record —
// Genesis(name) when firstSeq is 1, the previous segment's tip hash
// otherwise. An empty prev means the predecessor segments were pruned by
// retention: the first record's own Prev is adopted as the chain anchor,
// and callers must authenticate it against a checkpoint.
func decodeFrom(b []byte, firstSeq uint64, prev string, strict bool) (*DecodeResult, error) {
	res := &DecodeResult{}
	head := prev
	var off int64
	n := int64(len(b))
	nextSeq := func() uint64 { return firstSeq + uint64(len(res.Records)) }
	torn := func(what string) (*DecodeResult, error) {
		if strict {
			return nil, fmt.Errorf("%w: record %d at offset %d: %s", ErrCorrupt, nextSeq(), off, what)
		}
		res.Torn = true
		return res, nil
	}
	for off < n {
		if n-off < frameHeader {
			return torn("truncated frame header")
		}
		plen := int64(binary.BigEndian.Uint32(b[off : off+4]))
		wantCRC := binary.BigEndian.Uint32(b[off+4 : off+8])
		if plen == 0 || plen > MaxRecordBytes {
			// An impossible length prefix: either a torn header tail or
			// mid-log garbage. It can only be a crash artifact when the
			// claimed frame runs past EOF.
			if off+frameHeader+plen > n || plen == 0 {
				return torn(fmt.Sprintf("impossible payload length %d", plen))
			}
			return nil, fmt.Errorf("%w: record %d at offset %d: impossible payload length %d", ErrCorrupt, nextSeq(), off, plen)
		}
		end := off + frameHeader + plen
		if end > n {
			return torn("truncated payload")
		}
		payload := b[off+frameHeader : end]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			if end == n {
				// Tail-only CRC damage is indistinguishable from a torn
				// write; tolerant mode truncates it, strict mode rejects.
				return torn("payload CRC mismatch")
			}
			return nil, fmt.Errorf("%w: record %d at offset %d: payload CRC mismatch", ErrCorrupt, nextSeq(), off)
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			// Valid CRC but unparseable payload is a writer bug or
			// deliberate tampering, never a crash artifact.
			return nil, fmt.Errorf("%w: record %d at offset %d: %v", ErrCorrupt, nextSeq(), off, err)
		}
		if r.Seq != nextSeq() {
			return nil, fmt.Errorf("%w: record at offset %d: seq %d, want %d", ErrCorrupt, off, r.Seq, nextSeq())
		}
		if head == "" {
			head = r.Prev
		}
		if r.Prev != head {
			return nil, fmt.Errorf("%w: record %d: chain broken (prev %.12s, want %.12s)", ErrCorrupt, r.Seq, r.Prev, head)
		}
		if got := r.ChainHash(); got != r.Hash {
			return nil, fmt.Errorf("%w: record %d: hash mismatch (stored %.12s, computed %.12s)", ErrCorrupt, r.Seq, r.Hash, got)
		}
		mChainVerifies.Inc()
		res.Records = append(res.Records, r)
		head = r.Hash
		off = end
		res.Good = off
	}
	return res, nil
}

// LogOptions configures the append side of one durability directory.
type LogOptions struct {
	// Policy is the fsync policy (see SyncPolicy).
	Policy SyncPolicy

	// RotateRecords, when > 0, finalises the active segment and opens a
	// fresh one once the active segment holds this many records. 0 never
	// rotates by count.
	RotateRecords int

	// RotateBytes, when > 0, rotates once the active segment's frames
	// reach this many bytes. The cap is checked before an append, so a
	// segment always holds at least one record and may overshoot by one
	// frame. 0 never rotates by size.
	RotateBytes int64
}

// Log is the append side of one durability directory. Appends are
// serialised by an internal mutex; the engine additionally serialises
// them under its write lock, but the background interval flusher needs
// its own synchronisation either way.
type Log struct {
	mu       sync.Mutex
	dir      string
	opts     LogOptions
	f        *os.File
	head     string
	seq      uint64
	segFirst uint64 // seq of the active segment's first record
	segBytes int64  // frame bytes in the active segment
	dirty    bool
	closed   bool
	flushErr error // first background-flush failure; fail-stops the log

	stop chan struct{}
	done chan struct{}
}

// OpenLogWith opens dir's log for appending with explicit options.
// Appends continue the last on-disk segment; a fresh directory starts at
// the legacy single-file name wal.log (= the segment from seq 1), so a
// log that never rotates keeps the old layout byte for byte.
func OpenLogWith(dir, head string, seq uint64, opts LogOptions) (*Log, error) {
	segs, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, LogName)
	segFirst := uint64(1)
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		path, segFirst = last.Path, last.First
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	var size int64
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	l := &Log{dir: dir, opts: opts, f: f, head: head, seq: seq, segFirst: segFirst, segBytes: size}
	if opts.Policy == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flusher()
	}
	return l, nil
}

// flusher fsyncs a dirty log every FlushInterval until Close.
func (l *Log) flusher() {
	defer close(l.done)
	t := time.NewTicker(FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.flushTick()
		case <-l.stop:
			return
		}
	}
}

// flushTick is one background flush pass. A failed fsync is latched into
// flushErr and fail-stops the log: acked-but-unsynced records may be
// lost, so pretending later appends are durable would be a lie — they
// fail with the latched error instead, matching Append's own fail-stop
// contract under SyncAlways.
func (l *Log) flushTick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dirty || l.closed || l.flushErr != nil {
		return
	}
	if err := l.f.Sync(); err != nil {
		l.flushErr = fmt.Errorf("wal: background flush: %w", err)
		mErrFlush.Inc()
		return
	}
	l.dirty = false
	mFsyncs.Inc()
}

// needRotate reports whether the active segment has reached a rotation
// cap. Checked before an append and never for an empty segment, so every
// segment holds at least one record even under a one-byte cap.
func (l *Log) needRotate() bool {
	if l.seq+1 == l.segFirst {
		return false
	}
	if l.opts.RotateRecords > 0 && l.seq-(l.segFirst-1) >= uint64(l.opts.RotateRecords) {
		return true
	}
	return l.opts.RotateBytes > 0 && l.segBytes >= l.opts.RotateBytes
}

// rotate finalises the active segment and opens wal-<next-seq>.log as
// the new append target. The old segment is fsynced before its successor
// exists — that ordering is what guarantees only the final segment of a
// chain can ever carry a torn tail — and the directory entry is fsynced
// so the new segment itself survives power loss.
func (l *Log) rotate() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	mFsyncs.Inc()
	if err := l.f.Close(); err != nil {
		return err
	}
	first := l.seq + 1
	f, err := os.OpenFile(SegmentPath(l.dir, first), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.segFirst, l.segBytes = f, first, 0
	mRotations.Inc()
	return nil
}

// Append writes one record continuing the chain and returns it. Under
// SyncAlways the record is fsynced before Append returns — an
// acknowledged update survives any crash. A write error poisons the log
// (the file may hold a torn frame that later appends must not bury), so
// every subsequent Append fails with ErrClosed; a background-flush
// failure likewise fail-stops with the latched error.
func (l *Log) Append(version uint64, op, comp string, facts []string) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Record{}, ErrClosed
	}
	if l.flushErr != nil {
		return Record{}, l.flushErr
	}
	if l.needRotate() {
		if err := l.rotate(); err != nil {
			l.closed = true
			mErrRotate.Inc()
			return Record{}, fmt.Errorf("wal: rotate segment at seq %d: %w", l.seq+1, err)
		}
	}
	r := Record{Seq: l.seq + 1, Version: version, Op: op, Comp: comp, Facts: facts, Prev: l.head}
	r.Hash = r.ChainHash()
	frame, err := encodeFrame(&r)
	if err != nil {
		return Record{}, err
	}
	if _, err := l.f.Write(frame); err != nil {
		l.closed = true
		return Record{}, fmt.Errorf("wal: append record %d: %w", r.Seq, err)
	}
	if l.opts.Policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			l.closed = true
			return Record{}, fmt.Errorf("wal: fsync record %d: %w", r.Seq, err)
		}
		mFsyncs.Inc()
	} else {
		l.dirty = true
	}
	l.seq, l.head = r.Seq, r.Hash
	l.segBytes += int64(len(frame))
	mAppends.Inc()
	mBytes.Add(int64(len(frame)))
	return r, nil
}

// Sync forces a flush of unsynced appends. A latched background-flush
// failure is returned — the unsynced window may already be lost.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.flushErr != nil {
		return l.flushErr
	}
	if l.closed || !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	mFsyncs.Inc()
	return nil
}

// Head returns the chain state after the last append: record count and
// tip hash.
func (l *Log) Head() (seq uint64, hash string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq, l.head
}

// Close flushes and closes the log. Idempotent; a closed log rejects
// further appends with ErrClosed. A latched background-flush failure is
// returned in place of a final flush.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.flushErr
	if err == nil && l.dirty {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	return err
}

// Checkpoint is one snapshot checkpoint: the rendered effective program
// at Version, the number of log records it subsumes (Seq) and the chain
// head at that point. Name ties the checkpoint to its tenant's genesis.
type Checkpoint struct {
	Name      string `json:"name"`
	Version   uint64 `json:"version"`
	Seq       uint64 `json:"seq"`
	ChainHead string `json:"chain_head"`
	Program   string `json:"program"`
	// Sum is the checkpoint's own integrity hash over every field above,
	// set by WriteCheckpoint and verified by Checkpoints: the log's CRCs
	// and chain do not cover checkpoint files, this does.
	Sum string `json:"sum"`
}

// checksum hashes the checkpoint's logical fields (NUL-separated, like
// Record.ChainHash) for the Sum field.
func (cp *Checkpoint) checksum() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00%d\x00%s\x00%s", cp.Name, cp.Version, cp.Seq, cp.ChainHead, cp.Program)
	return hex.EncodeToString(h.Sum(nil))
}

func checkpointPath(dir string, version uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%020d.json", version))
}

// WriteCheckpoint persists cp atomically: temp file, fsync, rename. A
// crash leaves either the previous checkpoint set or the previous set
// plus the complete new file — never a torn checkpoint.
func WriteCheckpoint(dir string, cp *Checkpoint) error {
	cp.Sum = cp.checksum()
	b, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("wal: encode checkpoint v%d: %w", cp.Version, err)
	}
	path := checkpointPath(dir, cp.Version)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: write checkpoint v%d: %w", cp.Version, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: publish checkpoint v%d: %w", cp.Version, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("wal: checkpoint v%d: %w", cp.Version, err)
	}
	mCheckpoints.Inc()
	return nil
}

// syncDir fsyncs the directory so created, renamed and removed entries
// survive power loss. Filesystems that simply do not support directory
// fsync (EINVAL/ENOTSUP) are treated as success; every real failure is
// returned and counted under wal.errors.dirsync — a swallowed directory
// fsync after a checkpoint publish or segment rotation would silently
// forfeit the durability guarantee.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		mErrDirsync.Inc()
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err == nil || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	mErrDirsync.Inc()
	return fmt.Errorf("wal: sync dir %s: %w", dir, err)
}
