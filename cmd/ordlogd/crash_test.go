package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

const crashSrc = "module main {\n  seen(X) :- u(X).\n  u(c0).\n}\n"

// syncBuffer is a bytes.Buffer safe to read while os/exec's stderr copier
// is still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one running ordlogd under test.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *syncBuffer
}

// startDaemon launches bin with the given extra flags on an ephemeral
// port and waits for the serving line on stderr.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	pr, pw := io.Pipe()
	// The buffer is written before the pipe: once the scanner below has
	// seen a line, the test can read that line from the buffer too.
	buf := &syncBuffer{}
	cmd.Stderr = io.MultiWriter(buf, pw)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A failing assertion must not leave the daemon behind; both calls are
	// no-ops once the test has killed and reaped it itself.
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrRe := regexp.MustCompile(`serving \d+ tenants on http://([0-9.:]+)`)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
				break
			}
		}
		// Keep draining so the daemon never blocks on a full pipe.
		io.Copy(io.Discard, pr)
	}()
	select {
	case addr := <-addrCh:
		return &daemon{cmd: cmd, addr: addr, stderr: buf}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon did not come up; stderr:\n%s", buf.String())
		return nil
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// TestCrashRecoveryEndToEnd SIGKILLs a durable ordlogd mid-update-stream
// at randomized offsets, restarts it over the same -data-dir (with the
// same -load flag, which must be skipped for the recovered tenant), and
// checks that every acknowledged update survived and the WAL directory
// still verifies. The fine-grained kill-point matrix lives in
// internal/core's differential test; this exercises the real process
// boundary: fsynced acks, boot-time recovery, preload skipping.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real daemons")
	}
	bin := filepath.Join(t.TempDir(), "ordlogd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build ordlogd: %v\n%s", err, out)
	}
	progPath := filepath.Join(t.TempDir(), "demo.olp")
	if err := os.WriteFile(progPath, []byte(crashSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	client := &http.Client{Timeout: 10 * time.Second}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))

	baseArgs := []string{
		"-data-dir", dataDir, "-sync", "always", "-checkpoint-every", "3",
		"-load", "demo=" + progPath,
	}

	acked := 0 // updates acknowledged across all incarnations
	post := func(t *testing.T, d *daemon) error {
		t.Helper()
		body := fmt.Sprintf(`{"component":"main","facts":"u(k%d)."}`, acked+1)
		resp, err := client.Post(d.url("/v1/tenants/demo/update"), "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: status %d", acked+1, resp.StatusCode)
		}
		acked++
		return nil
	}

	rounds := 3
	for round := 0; round < rounds; round++ {
		d := startDaemon(t, bin, baseArgs...)
		if round > 0 && !strings.Contains(d.stderr.String(), `recovered tenant "demo"`) {
			t.Fatalf("round %d: no recovery line; stderr:\n%s", round, d.stderr.String())
		}
		if round > 0 && !strings.Contains(d.stderr.String(), "skipping -load") {
			t.Fatalf("round %d: recovered tenant was re-loaded from file; stderr:\n%s", round, d.stderr.String())
		}
		// Every fact acked before the previous crash must still be proved.
		for k := 1; k <= acked; k++ {
			resp, err := client.Get(d.url(fmt.Sprintf("/v1/tenants/demo/prove?lit=seen(k%d)", k)))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"proved": true`) {
				t.Fatalf("round %d: acked fact u(k%d) lost after crash: %d %s", round, k, resp.StatusCode, b)
			}
		}
		// Stream updates, then SIGKILL at a randomized offset — with one
		// more update racing the kill, so the final record may be torn or
		// unacknowledged.
		burst := 2 + rng.Intn(6)
		for i := 0; i < burst; i++ {
			if err := post(t, d); err != nil {
				t.Fatalf("round %d update: %v", round, err)
			}
		}
		raceBody := `{"component":"main","facts":"u(race)."}`
		go client.Post(d.url("/v1/tenants/demo/update"), "application/json", strings.NewReader(raceBody))
		time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
		if err := d.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		d.cmd.Wait()
	}

	// Final incarnation: verify and drain gracefully.
	d := startDaemon(t, bin, baseArgs...)
	for k := 1; k <= acked; k++ {
		resp, err := client.Get(d.url(fmt.Sprintf("/v1/tenants/demo/prove?lit=seen(k%d)", k)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"proved": true`) {
			t.Fatalf("final: acked fact u(k%d) lost: %d %s", k, resp.StatusCode, b)
		}
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown: %v; stderr:\n%s", err, d.stderr.String())
	}
	if !strings.Contains(d.stderr.String(), "drained, bye") {
		t.Fatalf("no drain line; stderr:\n%s", d.stderr.String())
	}

	// The surviving directory passes a strict offline verification.
	ordlogBin := filepath.Join(t.TempDir(), "ordlog")
	if out, err := exec.Command("go", "build", "-o", ordlogBin, "../ordlog").CombinedOutput(); err != nil {
		t.Fatalf("build ordlog: %v\n%s", err, out)
	}
	out, err := exec.Command(ordlogBin, "wal", "verify", filepath.Join(dataDir, "demo")).CombinedOutput()
	if err != nil {
		t.Fatalf("wal verify failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "ok: tenant \"demo\"") {
		t.Fatalf("unexpected verify output: %s", out)
	}
}
