package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSegmented appends n records through a rotating log and returns
// the directory and the appended records.
func writeSegmented(t *testing.T, name string, n int, opts LogOptions) (string, []Record) {
	t.Helper()
	dir := t.TempDir()
	l, err := OpenLogWith(dir, Genesis(name), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < n; i++ {
		op := "assert"
		if i%3 == 2 {
			op = "retract"
		}
		r, err := l.Append(uint64(i+1), op, "main", []string{"p(c" + string(rune('0'+i%10)) + ")."})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, recs
}

func TestRotationRoundtrip(t *testing.T) {
	dir, recs := writeSegmented(t, "tn", 10, LogOptions{RotateRecords: 3})
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 10 records, rotate every 3: wal.log(1..3), wal-4(4..6), wal-7(7..9), wal-10(10).
	if len(segs) != 4 {
		t.Fatalf("got %d segments, want 4: %+v", len(segs), segs)
	}
	if segs[0].Name != LogName || segs[1].First != 4 || segs[2].First != 7 || segs[3].First != 10 {
		t.Fatalf("unexpected segment layout: %+v", segs)
	}
	res, err := ReadAll(dir, Genesis("tn"), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || res.First != 1 || len(res.Records) != len(recs) {
		t.Fatalf("ReadAll: torn=%v first=%d n=%d", res.Torn, res.First, len(res.Records))
	}
	for i, r := range res.Records {
		if r.Hash != recs[i].Hash || r.Seq != recs[i].Seq {
			t.Fatalf("record %d diverged across rotation", i)
		}
	}
}

func TestRotateBytes(t *testing.T) {
	dir, _ := writeSegmented(t, "tn", 6, LogOptions{RotateBytes: 1})
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A one-byte cap still yields one record per segment, never zero.
	if len(segs) != 6 {
		t.Fatalf("got %d segments, want 6 (one record each)", len(segs))
	}
	if _, err := ReadAll(dir, Genesis("tn"), true); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesLastSegment(t *testing.T) {
	dir, recs := writeSegmented(t, "tn", 5, LogOptions{RotateRecords: 2})
	last := recs[len(recs)-1]
	l, err := OpenLogWith(dir, last.Hash, last.Seq, LogOptions{RotateRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(6, "assert", "main", []string{"q(a)."}); err != nil {
		t.Fatal(err)
	}
	// Seq 6 lands in the segment that already held seq 5, filling it;
	// seq 7 forces a rotation to wal-7.
	if _, err := l.Append(7, "assert", "main", []string{"q(b)."}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ReadAll(dir, Genesis("tn"), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 7 {
		t.Fatalf("got %d records, want 7", len(res.Records))
	}
	if _, err := os.Stat(SegmentPath(dir, 7)); err != nil {
		t.Fatalf("expected rotation to wal-7: %v", err)
	}
}

func TestTornTailOnlyInFinalSegment(t *testing.T) {
	dir, _ := writeSegmented(t, "tn", 7, LogOptions{RotateRecords: 3})
	segs, _ := ListSegments(dir)
	last := segs[len(segs)-1]
	b, err := os.ReadFile(last.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last.Path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := ReadAll(dir, Genesis("tn"), false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Torn || res.TornPath != last.Path {
		t.Fatalf("want torn tail in %s, got torn=%v path=%s", last.Path, res.Torn, res.TornPath)
	}
	if len(res.Records) != 6 {
		t.Fatalf("tolerant decode kept %d records, want 6", len(res.Records))
	}
	// The same damage in a non-final segment is hard corruption even in
	// tolerant mode: rotation fsyncs a segment before its successor
	// exists, so a mid-chain tear cannot be a crash artifact.
	dir2, _ := writeSegmented(t, "tn", 7, LogOptions{RotateRecords: 3})
	segs2, _ := ListSegments(dir2)
	mid := segs2[1]
	b2, err := os.ReadFile(mid.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mid.Path, b2[:len(b2)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(dir2, Genesis("tn"), false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-chain tear: got %v, want ErrCorrupt", err)
	}
}

func TestSegmentGapIsCorrupt(t *testing.T) {
	dir, _ := writeSegmented(t, "tn", 9, LogOptions{RotateRecords: 3})
	if err := os.Remove(SegmentPath(dir, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(dir, Genesis("tn"), false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing middle segment: got %v, want ErrCorrupt", err)
	}
}

func TestPruneSegmentsAndCheckpoints(t *testing.T) {
	dir, recs := writeSegmented(t, "tn", 10, LogOptions{RotateRecords: 3})
	// Checkpoints at seq 0 (genesis), 6 and 9.
	for _, seq := range []uint64{0, 6, 9} {
		head := Genesis("tn")
		var version uint64
		if seq > 0 {
			head = recs[seq-1].Hash
			version = recs[seq-1].Version
		}
		cp := &Checkpoint{Name: "tn", Version: version, Seq: seq, ChainHead: head, Program: "p(c0)."}
		if err := WriteCheckpoint(dir, cp); err != nil {
			t.Fatal(err)
		}
	}
	// Keep the newest 2 checkpoints: the genesis checkpoint goes, the
	// oldest retained sits at seq 6.
	removed, oldest, err := pruneCheckpoints(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || oldest != 6 {
		t.Fatalf("PruneCheckpoints: removed=%d oldest=%d, want 1/6", removed, oldest)
	}
	// Segments wal.log(1..3) and wal-4(4..6) are covered by seq 6;
	// wal-7(7..9) is not (its last record is 9 > 6), wal-10 is final.
	n, err := pruneSegments(dir, oldest)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("pruned %d segments, want 2", n)
	}
	res, err := ReadAll(dir, Genesis("tn"), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.First != 7 || len(res.Records) != 4 {
		t.Fatalf("after prune: first=%d n=%d, want 7/4", res.First, len(res.Records))
	}
	// The pruned chain still verifies end to end: the seq-6 checkpoint
	// anchors the adopted Prev of record 7.
	vr, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if vr.FirstSeq != 7 || vr.Records != 4 || vr.Segments != 2 || vr.Checkpoints != 2 {
		t.Fatalf("VerifyDir after prune: %+v", vr)
	}
	// Remove the anchoring checkpoint: the chain loses its witness.
	if err := removeCheckpoint(dir, 6); err != nil {
		t.Fatal(err)
	}
	if err := removeCheckpoint(dir, 9); err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{Name: "tn", Version: 5, Seq: 5, ChainHead: recs[4].Hash, Program: "p(c0)."}
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("checkpoint below retained chain: got %v, want ErrCorrupt", err)
	}
}

func TestPruneNeverTouchesFinalSegment(t *testing.T) {
	dir, _ := writeSegmented(t, "tn", 3, LogOptions{RotateRecords: 3})
	segs, _ := ListSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("want a single segment, got %d", len(segs))
	}
	n, err := pruneSegments(dir, 99)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("pruned the final segment (n=%d)", n)
	}
}

func TestResetRemovesSegments(t *testing.T) {
	dir, _ := writeSegmented(t, "tn", 10, LogOptions{RotateRecords: 3})
	if err := reset(dir); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("Reset left %d segments behind", len(segs))
	}
}

func TestSyncDirErrorSurfaced(t *testing.T) {
	before := mErrDirsync.Value()
	err := syncDir(filepath.Join(t.TempDir(), "does-not-exist"))
	if err == nil {
		t.Fatal("syncDir on a missing directory returned nil")
	}
	if !strings.Contains(err.Error(), "sync dir") {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := mErrDirsync.Value(); got != before+1 {
		t.Fatalf("wal.errors.dirsync = %d, want %d", got, before+1)
	}
	// WriteCheckpoint surfaces the failure instead of reporting a
	// checkpoint durable that the directory never persisted.
	cp := &Checkpoint{Name: "tn", Seq: 0, ChainHead: Genesis("tn")}
	dir := t.TempDir()
	sub := filepath.Join(dir, "gone")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(sub, cp); err != nil {
		t.Fatal(err)
	}
}

func TestFlushErrorFailStopsAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogWith(dir, Genesis("tn"), 0, LogOptions{Policy: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, "assert", "main", []string{"p(a)."}); err != nil {
		t.Fatal(err)
	}
	// Fault injection: yank the descriptor out from under the flusher so
	// its next fsync fails, then run a tick directly.
	before := mErrFlush.Value()
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()
	l.flushTick()
	if got := mErrFlush.Value(); got != before+1 {
		t.Fatalf("wal.errors.flush = %d, want %d", got, before+1)
	}
	if _, err := l.Append(2, "assert", "main", []string{"p(b)."}); err == nil || !strings.Contains(err.Error(), "background flush") {
		t.Fatalf("append after flush failure: got %v, want latched flush error", err)
	}
	if err := l.Sync(); err == nil || !strings.Contains(err.Error(), "background flush") {
		t.Fatalf("sync after flush failure: got %v, want latched flush error", err)
	}
	if err := l.Close(); err == nil || !strings.Contains(err.Error(), "background flush") {
		t.Fatalf("close after flush failure: got %v, want latched flush error", err)
	}
	// A second tick after the latch must not clear or double-count it.
	l.flushTick()
	if got := mErrFlush.Value(); got != before+1 {
		t.Fatalf("latched flush error re-counted: %d", got)
	}
}

func TestLegacySingleFileStillReadable(t *testing.T) {
	// A directory written entirely with no rotation caps is
	// the pre-segment layout; ReadAll must read it as a one-segment chain.
	dir, recs, _ := writeLog(t, "tn", 5, SyncAlways)
	res, err := ReadAll(dir, Genesis("tn"), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.First != 1 || res.Segments != 1 || len(res.Records) != len(recs) {
		t.Fatalf("legacy layout: first=%d segs=%d n=%d", res.First, res.Segments, len(res.Records))
	}
}

func TestEmptyFinalSegmentTolerated(t *testing.T) {
	dir, recs := writeSegmented(t, "tn", 4, LogOptions{RotateRecords: 2})
	// Simulate a crash between rotation and the first append: an empty
	// successor segment.
	if err := os.WriteFile(SegmentPath(dir, 5), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := ReadAll(dir, Genesis("tn"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("got %d records, want 4", len(res.Records))
	}
	// Reopening for append lands in the empty segment and continues the chain.
	last := recs[len(recs)-1]
	l, err := OpenLogWith(dir, last.Hash, last.Seq, LogOptions{RotateRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(5, "assert", "main", []string{"q(a)."}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(dir, Genesis("tn"), true); err != nil {
		t.Fatal(err)
	}
}
