package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment identifies one on-disk log segment.
type Segment struct {
	Path  string
	Name  string
	First uint64 // sequence number of the segment's first record
}

// SegmentPath returns the file path of the segment whose first record is
// at sequence first.
func SegmentPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%020d.log", first))
}

// parseSegmentName extracts the first-record sequence from a rotated
// segment file name (wal-<20 digits>.log). The legacy wal.log does not
// match — ListSegments special-cases it as the seq-1 segment.
func parseSegmentName(name string) (first uint64, ok bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(mid) != 20 {
		return 0, false
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

// ListSegments returns dir's log segments sorted by first sequence
// number. The legacy single-file wal.log, when present, is the segment
// holding records from seq 1 — a layout upgraded in place keeps it as
// the chain's head segment until retention prunes it. A missing
// directory, or one with no log files, is an empty (zero-segment) chain.
func ListSegments(dir string) ([]Segment, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []Segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if name == LogName {
			out = append(out, Segment{Path: filepath.Join(dir, name), Name: name, First: 1})
			continue
		}
		if first, ok := parseSegmentName(name); ok {
			out = append(out, Segment{Path: filepath.Join(dir, name), Name: name, First: first})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].First < out[j].First })
	for i := 1; i < len(out); i++ {
		if out[i].First == out[i-1].First {
			return nil, fmt.Errorf("%w: segments %s and %s both claim first seq %d", ErrCorrupt, out[i-1].Name, out[i].Name, out[i].First)
		}
	}
	return out, nil
}

// DirResult is the outcome of decoding a directory's full segment chain.
type DirResult struct {
	Records []Record

	// First is the sequence number of the first retained record: 1 unless
	// retention pruned a prefix of segments. When Records is non-empty,
	// Records[0].Seq == First.
	First uint64

	// Torn reports a torn tail in the final segment; TornPath and
	// TornGood are the file to truncate and the offset to truncate it to.
	Torn     bool
	TornPath string
	TornGood int64

	// Segments is the number of segment files in the chain.
	Segments int
}

// ReadAll decodes dir's whole segment chain from the genesis seed. Only
// the final segment may carry a torn tail — rotation fsyncs a segment
// before its successor exists — so in tolerant mode damage in any
// earlier segment is still hard corruption. Sequence numbers must be
// contiguous across segment boundaries (a missing middle segment is a
// gap, not a tail). A pruned prefix (First > 1) adopts the first
// surviving record's Prev as the chain anchor, which Open authenticates
// against a checkpoint.
func ReadAll(dir, genesis string, strict bool) (*DirResult, error) {
	segs, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	out := &DirResult{First: 1, Segments: len(segs)}
	if len(segs) == 0 {
		return out, nil
	}
	out.First = segs[0].First
	prev := ""
	if segs[0].First == 1 {
		prev = genesis
	}
	next := segs[0].First
	for i, seg := range segs {
		if seg.First != next {
			return nil, fmt.Errorf("%w: segment gap: %s starts at seq %d, want %d", ErrCorrupt, seg.Name, seg.First, next)
		}
		b, err := os.ReadFile(seg.Path)
		if err != nil {
			return nil, err
		}
		final := i == len(segs)-1
		res, err := decodeFrom(b, seg.First, prev, strict || !final)
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", seg.Name, err)
		}
		if res.Torn {
			out.Torn, out.TornPath, out.TornGood = true, seg.Path, res.Good
		}
		if len(res.Records) == 0 {
			// An empty segment is only legitimate at the end of the chain:
			// a crash between rotating and the first append leaves one.
			if !final {
				return nil, fmt.Errorf("%w: empty non-final segment %s", ErrCorrupt, seg.Name)
			}
			continue
		}
		prev = res.Records[len(res.Records)-1].Hash
		out.Records = append(out.Records, res.Records...)
		next = seg.First + uint64(len(res.Records))
	}
	return out, nil
}

// pruneCheckpoints deletes all but the newest keep checkpoint files.
// keep <= 0 keeps everything (the legacy unbounded layout). It returns
// the number deleted and the Seq of the oldest retained checkpoint — the
// cover point pruneSegments needs. On error the returned oldestSeq is 0,
// which prunes nothing, so a failed checkpoint pass can never strand a
// segment chain without its anchor.
func pruneCheckpoints(dir string, keep int) (removed int, oldestSeq uint64, err error) {
	cps, err := readCheckpoints(dir)
	if err != nil {
		return 0, 0, err
	}
	if len(cps) == 0 {
		return 0, 0, nil
	}
	if keep <= 0 || len(cps) <= keep {
		return 0, cps[0].Seq, nil
	}
	cut := len(cps) - keep
	for _, cp := range cps[:cut] {
		if err := removeCheckpoint(dir, cp.Version); err != nil {
			return removed, 0, err
		}
		removed++
		mCPsPruned.Inc()
	}
	if err := syncDir(dir); err != nil {
		return removed, 0, err
	}
	return removed, cps[cut].Seq, nil
}

// pruneSegments deletes every segment whose records are all covered by a
// checkpoint at sequence cpSeq — i.e. whose last record's seq (the next
// segment's First - 1, derived from file names alone) is <= cpSeq. The
// final segment is never deleted: it is the writer's open append target
// and the only segment allowed a torn tail. Callers prune checkpoints
// first and pass the oldest retained checkpoint's Seq, which preserves
// the invariant that every retained checkpoint anchors the retained
// chain (its Seq >= new First - 1).
func pruneSegments(dir string, cpSeq uint64) (removed int, err error) {
	segs, err := ListSegments(dir)
	if err != nil {
		return 0, err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].First-1 > cpSeq {
			break
		}
		if err := os.Remove(segs[i].Path); err != nil {
			return removed, err
		}
		removed++
		mSegsPruned.Inc()
	}
	if removed > 0 {
		if err := syncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
