package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

// TestDurableCorpusRecovers reads back the durability directories earlier
// builds wrote (testdata/durable/<format>/, made by
// testdata/durable/gen). Each directory is copied first, because recovery
// truncates a torn tail and prunes stale checkpoints. A directory pinned
// "% refused" must be refused by recovery and by `wal verify` with
// wal.ErrCorrupt. Every other one must recover to its pinned head, answer
// AsOf for every version with the pinned effective program (versions below
// the pinned floor were pruned by retention and are ErrVersionEvicted),
// and pass `wal verify` once recovered.
func TestDurableCorpusRecovers(t *testing.T) {
	wants, err := filepath.Glob(filepath.Join("..", "..", "testdata", "durable", "*", "*.want"))
	if err != nil || len(wants) < 3 {
		t.Fatalf("durable corpus missing: %v %v", wants, err)
	}
	for _, want := range wants {
		name := filepath.Join(filepath.Base(filepath.Dir(want)), strings.TrimSuffix(filepath.Base(want), ".want"))
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			w := readWant(t, want)
			dir := t.TempDir()
			copyFiles(t, strings.TrimSuffix(want, ".want"), dir)
			eng, err := core.Recover(ctx, dir, core.Config{})
			if w.refused {
				if err == nil {
					eng.Close()
					t.Fatal("recovered a directory every reader must refuse")
				}
				if !errors.Is(err, wal.ErrCorrupt) {
					t.Fatalf("recover: got %v, want wal.ErrCorrupt", err)
				}
				if code := runWAL([]string{"verify", dir}); code != 1 {
					t.Fatalf("wal verify exited %d, want 1", code)
				}
				return
			}
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer eng.Close()
			if v := eng.Current().Version(); v != w.head {
				t.Fatalf("recovered v%d, want v%d", v, w.head)
			}
			for v := uint64(0); v <= w.head; v++ {
				s, err := eng.AsOfCtx(ctx, v)
				if v < w.floor {
					if !errors.Is(err, core.ErrVersionEvicted) {
						t.Fatalf("AsOf(%d) below the retention floor v%d: got %v, want ErrVersionEvicted", v, w.floor, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("AsOf(%d): %v", v, err)
				}
				p, err := s.EffectiveProgram()
				if err != nil {
					t.Fatal(err)
				}
				if got := p.String(); got != w.programs[v] {
					t.Fatalf("AsOf(%d) effective program:\n%s\nwant:\n%s", v, got, w.programs[v])
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if code := runWAL([]string{"verify", dir}); code != 0 {
				t.Fatalf("wal verify of the recovered directory exited %d", code)
			}
		})
	}
}

// corpusWant is one <tenant>.want file of the durable corpus.
type corpusWant struct {
	refused     bool
	head, floor uint64
	programs    []string // the effective program at each version
}

func readWant(t *testing.T, path string) corpusWant {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var w corpusWant
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if line == "" {
			continue
		}
		key, val, _ := strings.Cut(strings.TrimSuffix(strings.TrimPrefix(line, "% "), "\n"), " ")
		n, numErr := strconv.ParseUint(val, 10, 64)
		switch {
		case !strings.HasPrefix(line, "% "):
			if len(w.programs) == 0 {
				t.Fatalf("%s: text before the first %% version line: %q", path, line)
			}
			w.programs[len(w.programs)-1] += line
		case key == "refused" && val == "":
			w.refused = true
		case numErr != nil:
			t.Fatalf("%s: %q: %v", path, line, numErr)
		case key == "head":
			w.head = n
		case key == "floor":
			w.floor = n
		case key == "version" && n == uint64(len(w.programs)):
			w.programs = append(w.programs, "")
		default:
			t.Fatalf("%s: unexpected line %q", path, line)
		}
	}
	if !w.refused && uint64(len(w.programs)) != w.head+1 {
		t.Fatalf("%s: %d programs for head v%d", path, len(w.programs), w.head)
	}
	return w
}

// copyFiles copies the files of directory src into dst.
func copyFiles(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
