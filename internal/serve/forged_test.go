package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/wal"
)

// TestForgedDirectorySameVerdict runs each forged durability directory
// through every reader of one: recovery, daemon boot (RecoverTenants),
// AsOf below a live engine's in-memory floor, and `ordlog wal verify`
// (core.Verify), plus wal.VerifyDir where the defect lies in how the files
// fit together rather than in what a checkpoint's program says. Every
// reader must refuse with wal.ErrCorrupt: one directory, one verdict.
//
// The directory holds tenant "tn" with the genesis checkpoint alone and
// three records (p(x0), p(x1), p(x2)); the engine compacts every two
// writes, so AsOf(1) is read from disk. The first three rows rewrite the
// genesis checkpoint with a valid integrity sum.
func TestForgedDirectorySameVerdict(t *testing.T) {
	const src = "module main {\n  q(X) :- p(X).\n  p(a).\n}\n"
	genesis := func(t *testing.T, src string) *wal.Checkpoint {
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		return &wal.Checkpoint{Name: "tn", ChainHead: wal.Genesis("tn"), Program: p.String()}
	}
	rewrite := func(t *testing.T, dir string, edit func([]byte) []byte) {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.json"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no checkpoint to forge: %v", err)
		}
		for _, path := range paths {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, edit(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	rows := []struct {
		name   string
		layout bool // wal.VerifyDir sees the defect too
		forge  func(t *testing.T, dir string)
	}{
		{"checkpoint seq past the log", true, func(t *testing.T, dir string) {
			cp := genesis(t, src)
			cp.Seq = 50
			if err := wal.WriteCheckpoint(dir, cp); err != nil {
				t.Fatal(err)
			}
		}},
		{"checkpoint chain head disagrees with the log", true, func(t *testing.T, dir string) {
			cp := genesis(t, src)
			cp.ChainHead = wal.Genesis("other")
			if err := wal.WriteCheckpoint(dir, cp); err != nil {
				t.Fatal(err)
			}
		}},
		// The genesis program already holds p(x0), so the first record,
		// which asserts p(x0), changes nothing at its position.
		{"checkpoint program diverges from the log", false, func(t *testing.T, dir string) {
			cp := genesis(t, strings.Replace(src, "p(a).", "p(a).\n  p(x0).", 1))
			if err := wal.WriteCheckpoint(dir, cp); err != nil {
				t.Fatal(err)
			}
		}},
		{"checkpoint JSON unreadable", true, func(t *testing.T, dir string) {
			rewrite(t, dir, func(b []byte) []byte { return b[:len(b)/2] })
		}},
		{"checkpoint byte flipped", true, func(t *testing.T, dir string) {
			rewrite(t, dir, func(b []byte) []byte {
				i := strings.Index(string(b), "p(a)")
				b[i+2] ^= 0x01
				return b
			})
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			dir := filepath.Join(t.TempDir(), "tn")
			prog, err := parser.ParseProgram(src)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.NewEngineCtx(ctx, prog, core.Config{CompactEvery: 2},
				core.WithDurability(dir), core.WithDurableName("tn"), core.WithCheckpointEvery(100), core.WithSync(wal.SyncAlways))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for _, c := range []string{"x0", "x1", "x2"} {
				if _, err := eng.Update(ctx, "main", []ast.Literal{ast.Pos(ast.Atom{Pred: "p", Args: []ast.Term{ast.Sym(c)}})}); err != nil {
					t.Fatal(err)
				}
			}
			row.forge(t, dir)
			refused := func(reader string, err error) {
				t.Helper()
				if !errors.Is(err, wal.ErrCorrupt) {
					t.Errorf("%s: got %v, want wal.ErrCorrupt", reader, err)
				}
			}

			_, err = eng.AsOfCtx(ctx, 1)
			refused("AsOf(1) below the in-memory floor", err)

			rec, err := core.Recover(ctx, copyTenant(t, dir), core.Config{})
			if err == nil {
				rec.Close()
			}
			refused("Recover", err)

			d := New(Config{DataDir: filepath.Dir(copyTenant(t, dir)), Sync: wal.SyncAlways})
			defer d.Close()
			names, err := d.RecoverTenants(ctx)
			refused("RecoverTenants", err)
			if len(names) != 0 || d.Registry().Len() != 0 {
				t.Errorf("RecoverTenants attached %v", names)
			}

			_, err = core.Verify(dir)
			refused("ordlog wal verify", err)
			if row.layout {
				_, err = wal.VerifyDir(dir)
				refused("wal.VerifyDir", err)
			}
		})
	}
}

// copyTenant copies the files of durability directory dir into a fresh
// directory named "tn" and returns its path.
func copyTenant(t *testing.T, dir string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "tn")
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}
