package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrNotDurable reports a directory that holds no checkpoint file: not a
// durability directory at all, as opposed to a damaged one (ErrCorrupt).
var ErrNotDurable = errors.New("no checkpoint (not a durability directory)")

// Dir is one durability directory as Open read it.
type Dir struct {
	DirResult
	Name string // the tenant every checkpoint names

	// Checkpoints are the checkpoints consistent with the log, ascending
	// by version: each one's Seq lies in the retained chain, its ChainHead
	// is the chain hash there and its Version that record's. Stale are
	// those whose records the log does not hold: past its end, when a
	// crash lost records written after the checkpoint, or before the
	// pruned horizon.
	Checkpoints, Stale []Checkpoint

	path   string
	anchor string // the chain hash at seq First-1
}

// Open reads dir's checkpoints and its segment chain from the genesis of
// the tenant they name. Damage anywhere is ErrCorrupt: an unreadable
// checkpoint, checkpoints naming two tenants, a broken chain, a
// checkpoint whose chain head or version disagrees with the record at its
// Seq, or no consistent checkpoint at all. A torn tail and stale
// checkpoints are crash artifacts a tolerant Open reports and Reopen
// repairs; a strict Open refuses them too. A directory without any
// checkpoint file is ErrNotDurable.
func Open(dir string, strict bool) (*Dir, error) {
	cps, err := readCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	if len(cps) == 0 {
		return nil, fmt.Errorf("wal: %s: %w", dir, ErrNotDurable)
	}
	name := cps[0].Name
	for _, cp := range cps {
		if cp.Name != name {
			return nil, fmt.Errorf("%w: checkpoints disagree on tenant name (%q vs %q)", ErrCorrupt, name, cp.Name)
		}
	}
	res, err := ReadAll(dir, Genesis(name), strict)
	if err != nil {
		return nil, err
	}
	d := &Dir{DirResult: *res, Name: name, path: dir}
	// A pruned chain adopts its first record's Prev as the anchor, or with
	// no record left a horizon checkpoint's head; a consistent checkpoint
	// authenticates it, since each record's hash covers its Prev.
	switch {
	case d.First == 1:
		d.anchor = Genesis(name)
	case len(d.Records) > 0:
		d.anchor = d.Records[0].Prev
	default:
		for _, cp := range cps {
			if cp.Seq == d.First-1 {
				d.anchor = cp.ChainHead
			}
		}
	}
	last := d.last()
	for _, cp := range cps {
		switch {
		case cp.Seq < d.First-1 || cp.Seq > last:
			if strict {
				return nil, fmt.Errorf("%w: checkpoint v%d at seq %d lies outside the retained chain (seq %d to %d)", ErrCorrupt, cp.Version, cp.Seq, d.First, last)
			}
			d.Stale = append(d.Stale, cp)
		case d.hashAt(cp.Seq) != cp.ChainHead:
			return nil, fmt.Errorf("%w: checkpoint v%d chain head mismatch at seq %d", ErrCorrupt, cp.Version, cp.Seq)
		case cp.Seq >= d.First && d.Records[cp.Seq-d.First].Version != cp.Version:
			return nil, fmt.Errorf("%w: checkpoint v%d sits at record version %d", ErrCorrupt, cp.Version, d.Records[cp.Seq-d.First].Version)
		default:
			d.Checkpoints = append(d.Checkpoints, cp)
		}
	}
	if len(d.Checkpoints) == 0 {
		return nil, fmt.Errorf("%w: %s: no checkpoint is consistent with the log", ErrCorrupt, dir)
	}
	return d, nil
}

// last is the sequence number of the last retained record.
func (d *Dir) last() uint64 { return d.First - 1 + uint64(len(d.Records)) }

// hashAt is the chain hash at seq, which lies in [First-1, last].
func (d *Dir) hashAt(seq uint64) string {
	if seq == d.First-1 {
		return d.anchor
	}
	return d.Records[seq-d.First].Hash
}

// head is the chain hash after the last retained record.
func (d *Dir) head() string { return d.hashAt(d.last()) }

// Newest returns the newest consistent checkpoint at or below version, or
// nil when every consistent checkpoint is newer.
func (d *Dir) Newest(version uint64) *Checkpoint {
	for i := len(d.Checkpoints) - 1; i >= 0; i-- {
		if d.Checkpoints[i].Version <= version {
			return &d.Checkpoints[i]
		}
	}
	return nil
}

// After returns the records that follow cp, one of d.Checkpoints.
func (d *Dir) After(cp *Checkpoint) []Record { return d.Records[cp.Seq-(d.First-1):] }

// Reopen repairs what a crash left in a tolerantly opened directory and
// opens its log for appending at the chain's head: the torn tail is
// truncated and the stale checkpoints are removed, so the directory
// verifies again.
func (d *Dir) Reopen(opts LogOptions) (*Log, error) {
	if d.Torn {
		if err := os.Truncate(d.TornPath, d.TornGood); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	for _, cp := range d.Stale {
		if err := removeCheckpoint(d.path, cp.Version); err != nil {
			return nil, fmt.Errorf("wal: remove stale checkpoint v%d: %w", cp.Version, err)
		}
	}
	return OpenLogWith(d.path, d.head(), d.last(), opts)
}

// Create starts a new history in dir: the directory is made, any WAL
// state in it removed (so a replaced tenant's history cannot bleed into
// its successor's chain), the genesis checkpoint of program at version
// written and the log opened.
func Create(dir, name string, version uint64, program string, opts LogOptions) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := reset(dir); err != nil {
		return nil, err
	}
	genesis := Genesis(name)
	if err := WriteCheckpoint(dir, &Checkpoint{Name: name, Version: version, ChainHead: genesis, Program: program}); err != nil {
		return nil, err
	}
	return OpenLogWith(dir, genesis, 0, opts)
}

// Checkpoint syncs the log, so that the checkpoint never claims records
// the log could lose, and writes tenant name's checkpoint of program at
// version and the log's head. With keep > 0 retention follows: all but
// the newest keep checkpoints are removed, then every segment the oldest
// kept one covers. In that order a crash between the two passes leaves
// extra segments, never a chain without its anchor.
func (l *Log) Checkpoint(name string, version uint64, program string, keep int) error {
	if err := l.Sync(); err != nil {
		return err
	}
	seq, head := l.Head()
	if err := WriteCheckpoint(l.dir, &Checkpoint{Name: name, Version: version, Seq: seq, ChainHead: head, Program: program}); err != nil {
		return err
	}
	if keep <= 0 {
		return nil
	}
	_, oldest, err := pruneCheckpoints(l.dir, keep)
	if err != nil {
		return err
	}
	_, err = pruneSegments(l.dir, oldest)
	return err
}

// readCheckpoints reads every checkpoint in dir, sorted ascending by
// version. Leftover .tmp files from interrupted writes are ignored; an
// unreadable published checkpoint is corruption.
func readCheckpoints(dir string) ([]Checkpoint, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Checkpoint
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		var cp Checkpoint
		if err := json.Unmarshal(b, &cp); err != nil {
			return nil, fmt.Errorf("%w: checkpoint %s: %v", ErrCorrupt, name, err)
		}
		if cp.Sum != cp.checksum() {
			return nil, fmt.Errorf("%w: checkpoint %s: integrity sum mismatch", ErrCorrupt, name)
		}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out, nil
}

// reset removes all WAL state (log, checkpoints, temp files) from dir.
func reset(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		_, isSeg := parseSegmentName(name)
		if name == LogName || isSeg || strings.HasPrefix(name, "checkpoint-") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// removeCheckpoint deletes version's checkpoint file, if there is one.
func removeCheckpoint(dir string, version uint64) error {
	err := os.Remove(checkpointPath(dir, version))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// VerifyResult summarises a verified directory.
type VerifyResult struct {
	Name        string
	Records     int
	Segments    int
	FirstSeq    uint64 // seq of the first retained record (> 1 after retention pruning)
	Checkpoints int
	Version     uint64 // version at the chain tip (last record, or newest checkpoint)
	Head        string // chain head hash
}

// VerifyDir strictly verifies a durability directory end to end: a
// strict Open, so every record's CRC and chain hash across the whole
// segment chain (a single flipped byte anywhere fails, a torn tail too)
// and every checkpoint's consistency with the chain. Program text is not
// read here: core.Verify folds each checkpoint's records into it.
func VerifyDir(dir string) (*VerifyResult, error) {
	d, err := Open(dir, true)
	if err != nil {
		return nil, err
	}
	return d.Summary(), nil
}

// Summary describes the directory as VerifyDir reports it.
func (d *Dir) Summary() *VerifyResult {
	out := &VerifyResult{Name: d.Name, Records: len(d.Records), Segments: d.Segments, FirstSeq: d.First,
		Checkpoints: len(d.Checkpoints), Head: d.head(), Version: d.Checkpoints[len(d.Checkpoints)-1].Version}
	if n := len(d.Records); n > 0 {
		out.Version = d.Records[n-1].Version
	}
	return out
}
