package ordlog_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesOutput builds every program under examples/, runs it and
// compares its stdout byte for byte with testdata/examples/<name>.out.
// Every example must have a recorded output and every recording an
// example.
func TestExamplesOutput(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dirs, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	outs, err := filepath.Glob(filepath.Join("testdata", "examples", "*.out"))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(dirs) {
		t.Errorf("%d examples but %d recorded outputs", len(dirs), len(outs))
	}
	bin := t.TempDir()
	build := exec.Command(goBin, "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, main := range dirs {
		name := filepath.Base(filepath.Dir(main))
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".out"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Dir = bin
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.Bytes())
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from testdata/examples/%s.out\n got:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}
