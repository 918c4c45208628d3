package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/wal"
)

const pinSrc = "module main {\n  seen(X) :- u(X).\n  u(c0).\n}\n"

// loadAndUpdate loads tenant "pin" and publishes n update versions
// (u(c1)..u(cn)) through the HTTP surface.
func loadAndUpdate(t *testing.T, h http.Handler, n int) {
	t.Helper()
	if w := doReq(h, "PUT", "/v1/tenants/pin", "text/plain", pinSrc); w.Code != http.StatusCreated {
		t.Fatalf("load: code = %d (body %s)", w.Code, w.Body)
	}
	for k := 1; k <= n; k++ {
		body, _ := json.Marshal(writeReqJSON{Component: "main", Facts: fmt.Sprintf("u(c%d).", k)})
		if w := doReq(h, "POST", "/v1/tenants/pin/update", "application/json", string(body)); w.Code != http.StatusOK {
			t.Fatalf("update %d: code = %d (body %s)", k, w.Code, w.Body)
		}
	}
}

func TestDaemonAsOfTimeTravel(t *testing.T) {
	d := New(Config{Retain: 2})
	h := d.Handler()
	loadAndUpdate(t, h, 4) // versions 1..4; retain 2 keeps {3,4} pinnable

	// The ?version= contract is untouched: evicted pins stay 410, unknown
	// versions stay 404.
	if w := doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)&version=1", "", ""); w.Code != http.StatusGone {
		t.Fatalf("?version=1: code = %d, want 410 (body %s)", w.Code, w.Body)
	}
	if w := doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)&version=99", "", ""); w.Code != http.StatusNotFound {
		t.Fatalf("?version=99: code = %d, want 404 (body %s)", w.Code, w.Body)
	}

	// ?as_of= reaches past the retention ring: every published version is
	// answerable, with the answer set of that version (v has u(c0)..u(cv)).
	for v := 0; v <= 4; v++ {
		w := doReq(h, "GET", fmt.Sprintf("/v1/tenants/pin/query?q=seen(X)&as_of=%d", v), "", "")
		if w.Code != http.StatusOK {
			t.Fatalf("?as_of=%d: code = %d (body %s)", v, w.Code, w.Body)
		}
		var resp queryRespJSON
		decodeJSON(t, w, &resp)
		if resp.Version != uint64(v) || len(resp.Answers) != v+1 {
			t.Fatalf("?as_of=%d: version %d with %d answers, want %d", v, resp.Version, len(resp.Answers), v+1)
		}
	}
	// Prove pins the same way.
	if w := doReq(h, "GET", "/v1/tenants/pin/prove?lit=seen(c3)&as_of=2", "", ""); w.Code != http.StatusOK {
		t.Fatalf("prove as_of=2: code = %d (body %s)", w.Code, w.Body)
	} else {
		var resp proveRespJSON
		decodeJSON(t, w, &resp)
		if resp.Proved == nil || *resp.Proved {
			t.Fatal("seen(c3) proved as of v2, but c3 arrived at v3")
		}
	}

	// A version that never existed is 404; both pins at once is a 400.
	if w := doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)&as_of=99", "", ""); w.Code != http.StatusNotFound {
		t.Fatalf("?as_of=99: code = %d, want 404 (body %s)", w.Code, w.Body)
	}
	if w := doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)&version=3&as_of=2", "", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("both pins: code = %d, want 400 (body %s)", w.Code, w.Body)
	}
}

// TestDaemonAsOfAdmission: an ?as_of= read reconstructs its version only
// once admitted and under the request's deadline. With the tenant's only
// slot held, an evicted version is rejected with 429 before anything is
// grounded, while a pin that fails on its own — malformed, both
// parameters, an evicted ?version=, a version past the tip — answers its
// own status without waiting for a slot. With a deadline that has already
// passed, the reconstruction is interrupted and answers 503.
func TestDaemonAsOfAdmission(t *testing.T) {
	d := New(Config{Retain: 2, InFlight: 1})
	h := d.Handler()
	loadAndUpdate(t, h, 4) // retain 2 keeps {3,4}: as_of=1 must reground
	tn, ok := d.Registry().Get("pin")
	if !ok {
		t.Fatal("tenant not registered")
	}
	runs := obs.Default().Counter("ground.runs")

	release, ok := tn.TryAcquire()
	if !ok {
		t.Fatal("could not take the only admission slot")
	}
	before := runs.Value()
	w := doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)&as_of=1&timeout=30ms", "", "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated ?as_of=1: code = %d, want 429 (body %s)", w.Code, w.Body)
	}
	for _, c := range []struct {
		pin  string
		code int
	}{
		{"as_of=x", http.StatusBadRequest},
		{"version=1&as_of=1", http.StatusBadRequest},
		{"version=1", http.StatusGone},
		{"as_of=99", http.StatusNotFound},
		{"version=4", http.StatusTooManyRequests},
	} {
		w := doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)&timeout=30ms&"+c.pin, "", "")
		if w.Code != c.code {
			t.Fatalf("saturated ?%s: code = %d, want %d (body %s)", c.pin, w.Code, c.code, w.Body)
		}
	}
	if got := runs.Value() - before; got != 0 {
		t.Fatalf("rejected ?as_of=1 grounded %d times, want 0", got)
	}
	release()

	w = doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)&as_of=1&timeout=1ns", "", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("?as_of=1&timeout=1ns: code = %d, want 503 (body %s)", w.Code, w.Body)
	}
	w = doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)&as_of=1&timeout=10s", "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("?as_of=1 after the interrupted one: code = %d, want 200 (body %s)", w.Code, w.Body)
	}
	if got := tn.InFlight(); got != 0 {
		t.Fatalf("in-flight after all requests done = %d, want 0", got)
	}
}

func TestDaemonDurableRecovery(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Retain: 4, DataDir: dataDir, CheckpointEvery: 2, Sync: wal.SyncAlways}

	d := New(cfg)
	loadAndUpdate(t, d.Handler(), 3)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh daemon over the same data dir restores the tenant — tip
	// version, answers, and the time-travel history all survive.
	d2 := New(cfg)
	names, err := d2.RecoverTenants(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if len(names) != 1 || names[0] != "pin" {
		t.Fatalf("recovered %v, want [pin]", names)
	}
	h := d2.Handler()
	w := doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)", "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("query after recovery: code = %d (body %s)", w.Code, w.Body)
	}
	var resp queryRespJSON
	decodeJSON(t, w, &resp)
	if resp.Version != 3 || len(resp.Answers) != 4 {
		t.Fatalf("recovered tip: version %d with %d answers, want v3 with 4", resp.Version, len(resp.Answers))
	}
	for v := 0; v <= 3; v++ {
		w := doReq(h, "GET", fmt.Sprintf("/v1/tenants/pin/query?q=seen(X)&as_of=%d", v), "", "")
		var resp queryRespJSON
		decodeJSON(t, w, &resp)
		if w.Code != http.StatusOK || len(resp.Answers) != v+1 {
			t.Fatalf("?as_of=%d after recovery: code %d, %d answers, want %d", v, w.Code, len(resp.Answers), v+1)
		}
	}
	// Writes continue the recovered chain and the directory verifies.
	body, _ := json.Marshal(writeReqJSON{Component: "main", Facts: "u(c4)."})
	if w := doReq(h, "POST", "/v1/tenants/pin/update", "application/json", string(body)); w.Code != http.StatusOK {
		t.Fatalf("post-recovery update: code = %d (body %s)", w.Code, w.Body)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if res, err := wal.VerifyDir(d2.tenantDir("pin")); err != nil || res.Version != 4 {
		t.Fatalf("verify tenant dir: res=%+v err=%v", res, err)
	}

	// Dropping a durable tenant removes its directory; a daemon booting
	// afterwards recovers nothing.
	d3 := New(cfg)
	if _, err := d3.RecoverTenants(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w := doReq(d3.Handler(), "DELETE", "/v1/tenants/pin", "", ""); w.Code != http.StatusNoContent {
		t.Fatalf("drop: code = %d (body %s)", w.Code, w.Body)
	}
	if _, err := os.Stat(d3.tenantDir("pin")); !os.IsNotExist(err) {
		t.Fatalf("tenant dir survives drop: %v", err)
	}
	if err := d3.Close(); err != nil {
		t.Fatal(err)
	}
	d4 := New(cfg)
	names, err = d4.RecoverTenants(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer d4.Close()
	if len(names) != 0 {
		t.Fatalf("recovered %v after drop, want none", names)
	}
}

// TestDaemonMemoryOnlyUnchanged pins the no-DataDir daemon: recovery is a
// no-op and TenantConfig carries no durability.
func TestDaemonMemoryOnlyUnchanged(t *testing.T) {
	d := New(Config{})
	names, err := d.RecoverTenants(context.Background())
	if err != nil || names != nil {
		t.Fatalf("RecoverTenants on memory-only daemon: %v, %v", names, err)
	}
	if cfg := d.TenantConfig("x"); cfg.Durability.Dir != "" {
		t.Fatalf("memory-only TenantConfig has durability: %+v", cfg.Durability)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
