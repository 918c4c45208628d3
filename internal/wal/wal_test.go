package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeLog appends n small records through the real Log and returns the
// directory, the records, and the raw log bytes.
func writeLog(t *testing.T, name string, n int, policy SyncPolicy) (dir string, recs []Record, raw []byte) {
	t.Helper()
	dir = t.TempDir()
	l, err := OpenLogWith(dir, Genesis(name), 0, LogOptions{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
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
	raw, err = os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	return dir, recs, raw
}

func TestLogRoundtrip(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			dir, recs, _ := writeLog(t, "tn", 7, policy)
			res, err := ReadAll(dir, Genesis("tn"), true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Torn {
				t.Fatal("clean log reported torn")
			}
			if len(res.Records) != len(recs) {
				t.Fatalf("decoded %d records, want %d", len(res.Records), len(recs))
			}
			for i, r := range res.Records {
				if r.Hash != recs[i].Hash || r.Seq != recs[i].Seq || r.Op != recs[i].Op {
					t.Fatalf("record %d diverged: %+v vs %+v", i, r, recs[i])
				}
				if r.ChainHash() != r.Hash {
					t.Fatalf("record %d hash does not recompute", i)
				}
			}
		})
	}
}

func TestGenesisSeparatesTenants(t *testing.T) {
	if Genesis("a") == Genesis("b") {
		t.Fatal("genesis hashes collide across tenants")
	}
	dir, _, _ := writeLog(t, "a", 3, SyncAlways)
	// A log decoded against the wrong tenant's genesis must fail on the
	// very first record — this is what makes swapped directories loud.
	// A chain mismatch is hard corruption in both modes: a crash cannot
	// reseed the chain, only tampering or a swapped directory can.
	for _, strict := range []bool{true, false} {
		if _, err := ReadAll(dir, Genesis("b"), strict); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("wrong-genesis decode (strict=%v): got %v, want ErrCorrupt", strict, err)
		}
	}
}

func TestEveryFlippedByteDetectedStrict(t *testing.T) {
	_, _, raw := writeLog(t, "tn", 5, SyncAlways)
	for i := range raw {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), raw...)
			mut[i] ^= bit
			if _, err := Decode(mut, Genesis("tn"), true); err == nil {
				t.Fatalf("flipping bit %#x of byte %d went undetected in strict mode", bit, i)
			}
		}
	}
}

func TestTruncationTolerantPrefix(t *testing.T) {
	_, recs, raw := writeLog(t, "tn", 5, SyncAlways)
	// Frame boundaries: offsets where a truncation is a clean log.
	boundary := map[int64]int{0: 0}
	var off int64
	for i := range recs {
		b, err := encodeFrame(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		off += int64(len(b))
		boundary[off] = i + 1
	}
	if off != int64(len(raw)) {
		t.Fatalf("re-encoded frames span %d bytes, log has %d", off, len(raw))
	}
	for cut := 0; cut <= len(raw); cut++ {
		res, err := Decode(raw[:cut], Genesis("tn"), false)
		if err != nil {
			t.Fatalf("tolerant decode of %d-byte prefix: %v", cut, err)
		}
		if n, clean := boundary[int64(cut)]; clean {
			if res.Torn || len(res.Records) != n {
				t.Fatalf("cut at boundary %d: torn=%v records=%d want %d", cut, res.Torn, len(res.Records), n)
			}
			continue
		}
		if !res.Torn {
			t.Fatalf("cut mid-frame at %d not reported torn", cut)
		}
		if _, ok := boundary[res.Good]; !ok {
			t.Fatalf("cut at %d: Good=%d is not a frame boundary", cut, res.Good)
		}
		if res.Good > int64(cut) {
			t.Fatalf("cut at %d: Good=%d past the cut", cut, res.Good)
		}
		// Strict mode must reject the same torn image outright.
		if _, err := Decode(raw[:cut], Genesis("tn"), true); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("strict decode of torn %d-byte prefix: got %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogWith(dir, Genesis("tn"), 0, LogOptions{Policy: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, "assert", "main", []string{"p(a)."}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append(2, "assert", "main", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: got %v, want ErrClosed", err)
	}
}

func TestCheckpointRoundtripAndVerify(t *testing.T) {
	dir, recs, _ := writeLog(t, "tn", 6, SyncAlways)
	writeCP := func(seq uint64) {
		t.Helper()
		head := Genesis("tn")
		var version uint64
		if seq > 0 {
			head = recs[seq-1].Hash
			version = recs[seq-1].Version
		}
		if err := WriteCheckpoint(dir, &Checkpoint{Name: "tn", Version: version, Seq: seq, ChainHead: head, Program: "module main { }"}); err != nil {
			t.Fatal(err)
		}
	}
	writeCP(0)
	writeCP(4)
	cps, err := readCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 2 || cps[0].Seq != 0 || cps[1].Seq != 4 {
		t.Fatalf("checkpoints = %+v", cps)
	}
	res, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "tn" || res.Records != 6 || res.Checkpoints != 2 || res.Version != 6 {
		t.Fatalf("verify = %+v", res)
	}
	if res.Head != recs[5].Hash {
		t.Fatalf("verify head %s, want %s", res.Head, recs[5].Hash)
	}
	if _, err := Open(t.TempDir(), false); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("empty directory: got %v, want ErrNotDurable", err)
	}
}

func TestVerifyDirDetectsInconsistencies(t *testing.T) {
	build := func(t *testing.T) (string, []Record) {
		dir, recs, _ := writeLog(t, "tn", 4, SyncAlways)
		if err := WriteCheckpoint(dir, &Checkpoint{Name: "tn", Version: 2, Seq: 2, ChainHead: recs[1].Hash, Program: "module main { }"}); err != nil {
			t.Fatal(err)
		}
		return dir, recs
	}

	t.Run("ok", func(t *testing.T) {
		dir, _ := build(t)
		if _, err := VerifyDir(dir); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("checkpoint byte flipped", func(t *testing.T) {
		dir, _ := build(t)
		path := checkpointPath(dir, 2)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a byte inside the program text: JSON still parses, only the
		// integrity sum can catch it.
		i := bytes.Index(b, []byte("main"))
		b[i] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyDir(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("checkpoint beyond log", func(t *testing.T) {
		dir, recs := build(t)
		if err := WriteCheckpoint(dir, &Checkpoint{Name: "tn", Version: 9, Seq: 9, ChainHead: recs[3].Hash, Program: "module main { }"}); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyDir(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("checkpoint wrong chain head", func(t *testing.T) {
		dir, recs := build(t)
		if err := WriteCheckpoint(dir, &Checkpoint{Name: "tn", Version: 3, Seq: 3, ChainHead: recs[0].Hash, Program: "module main { }"}); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyDir(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("names disagree", func(t *testing.T) {
		dir, _ := build(t)
		if err := WriteCheckpoint(dir, &Checkpoint{Name: "other", Version: 0, Seq: 0, ChainHead: Genesis("other"), Program: "module main { }"}); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyDir(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncated log", func(t *testing.T) {
		dir, _ := build(t)
		path := filepath.Join(dir, LogName)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyDir(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

func TestReset(t *testing.T) {
	dir, recs, _ := writeLog(t, "tn", 3, SyncAlways)
	if err := WriteCheckpoint(dir, &Checkpoint{Name: "tn", Version: 0, Seq: 0, ChainHead: Genesis("tn"), Program: "module main { }"}); err != nil {
		t.Fatal(err)
	}
	_ = recs
	if err := reset(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, false); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("reset directory: got %v, want ErrNotDurable", err)
	}
	res, err := ReadAll(dir, Genesis("tn"), true)
	if err != nil || len(res.Records) != 0 {
		t.Fatalf("reset log: %d records, err %v", len(res.Records), err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"always", SyncAlways, false},
		{"interval", SyncInterval, false},
		{"", SyncInterval, false},
		{"fsync", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", c.in, got, err)
		}
		if err == nil && got.String() == "" {
			t.Fatalf("policy %v has empty String", got)
		}
	}
}

// FuzzWALDecode drives the decoder with arbitrary bytes (must never panic)
// and with random mutations of a valid log: a tolerant decode either fails
// or returns an intact chain prefix of the original.
func FuzzWALDecode(f *testing.F) {
	dir := f.TempDir()
	l, err := OpenLogWith(dir, Genesis("fz"), 0, LogOptions{Policy: SyncAlways})
	if err != nil {
		f.Fatal(err)
	}
	var orig []Record
	for i := 0; i < 4; i++ {
		r, err := l.Append(uint64(i+1), "assert", "main", []string{"p(a).", "q(b, c)."})
		if err != nil {
			f.Fatal(err)
		}
		orig = append(orig, r)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, -1, byte(0))
	f.Add([]byte{}, -1, byte(0))
	f.Add([]byte("garbage that is not a frame"), -1, byte(0))
	f.Add(valid, 3, byte(0x40))
	f.Add(valid[:len(valid)-5], -1, byte(0))

	f.Fuzz(func(t *testing.T, b []byte, mutAt int, mutBit byte) {
		img := b
		if mutAt >= 0 && len(valid) > 0 {
			img = append([]byte(nil), valid...)
			img[mutAt%len(img)] ^= mutBit | 1
		}
		for _, strict := range []bool{false, true} {
			res, err := Decode(img, Genesis("fz"), strict)
			if err != nil {
				if !strings.Contains(err.Error(), "wal:") {
					t.Fatalf("foreign error from decoder: %v", err)
				}
				continue
			}
			if strict && res.Torn {
				t.Fatal("strict decode returned a torn result instead of an error")
			}
			// Whatever survives must be a chain prefix: recomputing every
			// hash from genesis must reproduce the stored values.
			head := Genesis("fz")
			for i := range res.Records {
				r := &res.Records[i]
				if r.Prev != head || r.ChainHash() != r.Hash {
					t.Fatalf("record %d of decoded result breaks the chain", i)
				}
				head = r.Hash
			}
			if mutAt >= 0 {
				// A mutated valid log can only yield a prefix of the
				// original records, never different content.
				if len(res.Records) > len(orig) {
					t.Fatalf("mutation grew the log: %d records", len(res.Records))
				}
				for i, r := range res.Records {
					if r.Hash != orig[i].Hash {
						t.Fatalf("mutation rewrote record %d", i)
					}
				}
			}
		}
	})
}

func TestRandomTruncationMatchesOracle(t *testing.T) {
	_, recs, raw := writeLog(t, "tn", 12, SyncAlways)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		cut := rng.Intn(len(raw) + 1)
		res, err := Decode(raw[:cut], Genesis("tn"), false)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for j, r := range res.Records {
			if r.Hash != recs[j].Hash {
				t.Fatalf("cut %d: record %d diverged", cut, j)
			}
		}
	}
}
