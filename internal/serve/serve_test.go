package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// doReq runs one request through the daemon's handler and returns the
// recorded response.
func doReq(h http.Handler, method, target, contentType, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeJSON(t *testing.T, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decode response %q: %v", w.Body.String(), err)
	}
}

// ownerSrc is a tiny distinguishable program per tenant: owner(<name>) and
// a derived fact layer, so cross-tenant bleed is detectable from answers.
func ownerSrc(name string) string {
	return fmt.Sprintf("module main {\n  owner(%s).\n  served(X) :- owner(X).\n}\n", name)
}

func TestDaemonTenantLifecycle(t *testing.T) {
	d := New(Config{})
	h := d.Handler()

	// Unknown tenant: reads and writes 404.
	if w := doReq(h, "GET", "/v1/tenants/ghost", "", ""); w.Code != http.StatusNotFound {
		t.Fatalf("info on unknown tenant: code = %d, want 404", w.Code)
	}
	if w := doReq(h, "GET", "/v1/tenants/ghost/query?q=p(X)", "", ""); w.Code != http.StatusNotFound {
		t.Fatalf("query on unknown tenant: code = %d, want 404", w.Code)
	}

	// Create: 201 with the tenant info body.
	w := doReq(h, "PUT", "/v1/tenants/alpha", "text/plain", ownerSrc("alpha"))
	if w.Code != http.StatusCreated {
		t.Fatalf("create: code = %d, want 201 (body %s)", w.Code, w.Body)
	}
	var info tenantInfoJSON
	decodeJSON(t, w, &info)
	if info.Name != "alpha" || info.Version != 0 || info.Rules == 0 {
		t.Fatalf("create info = %+v, want name alpha, version 0, rules > 0", info)
	}

	// JSON body form of load.
	body, _ := json.Marshal(map[string]string{"program": ownerSrc("beta")})
	if w := doReq(h, "PUT", "/v1/tenants/beta", "application/json", string(body)); w.Code != http.StatusCreated {
		t.Fatalf("create beta via JSON: code = %d (body %s)", w.Code, w.Body)
	}

	// Replace: 200, not 201.
	if w := doReq(h, "PUT", "/v1/tenants/alpha", "text/plain", ownerSrc("alpha")); w.Code != http.StatusOK {
		t.Fatalf("replace: code = %d, want 200", w.Code)
	}

	// List contains both, sorted.
	w = doReq(h, "GET", "/v1/tenants", "", "")
	var list struct {
		Tenants []tenantInfoJSON `json:"tenants"`
	}
	decodeJSON(t, w, &list)
	if len(list.Tenants) != 2 || list.Tenants[0].Name != "alpha" || list.Tenants[1].Name != "beta" {
		t.Fatalf("list = %+v, want [alpha beta]", list.Tenants)
	}

	// Query each tenant: answers must be that tenant's own facts.
	for _, name := range []string{"alpha", "beta"} {
		w := doReq(h, "GET", "/v1/tenants/"+name+"/query?q=served(X)", "", "")
		if w.Code != http.StatusOK {
			t.Fatalf("query %s: code = %d (body %s)", name, w.Code, w.Body)
		}
		var resp queryRespJSON
		decodeJSON(t, w, &resp)
		if len(resp.Answers) != 1 || resp.Answers[0]["X"] != name {
			t.Fatalf("query %s: answers = %v, want [{X: %s}]", name, resp.Answers, name)
		}
		if got := w.Header().Get("Ordlog-Version"); got != "0" {
			t.Fatalf("query %s: Ordlog-Version = %q, want 0", name, got)
		}
	}

	// Prove a positive and a negative literal.
	w = doReq(h, "GET", "/v1/tenants/alpha/prove?lit=owner(alpha)", "", "")
	var pr proveRespJSON
	decodeJSON(t, w, &pr)
	if pr.Proved == nil || !*pr.Proved {
		t.Fatalf("prove owner(alpha): %+v, want proved", pr)
	}
	w = doReq(h, "GET", "/v1/tenants/alpha/prove?lit=owner(beta)", "", "")
	decodeJSON(t, w, &pr)
	if pr.Proved == nil || *pr.Proved {
		t.Fatalf("prove owner(beta) on alpha: %+v, want not proved", pr)
	}

	// Malformed inputs are 400s, not panics.
	for _, target := range []string{
		"/v1/tenants/alpha/query?q=served(",
		"/v1/tenants/alpha/query",
		"/v1/tenants/alpha/query?q=served(X)&timeout=banana",
		"/v1/tenants/alpha/query?q=served(X)&version=banana",
		"/v1/tenants/alpha/stable?max=-3",
	} {
		if w := doReq(h, "GET", target, "", ""); w.Code != http.StatusBadRequest {
			t.Errorf("GET %s: code = %d, want 400", target, w.Code)
		}
	}
	if w := doReq(h, "PUT", "/v1/tenants/bad", "text/plain", "module main { p(X :- }"); w.Code != http.StatusBadRequest {
		t.Errorf("load malformed program: code = %d, want 400", w.Code)
	}
	// A NUL byte is an error, not the end of the body: the load is
	// refused whole, and no tenant is created.
	if w := doReq(h, "PUT", "/v1/tenants/nul", "text/plain", "module main { a. }\x00 module m { b. "); w.Code != http.StatusBadRequest {
		t.Errorf("load with a NUL byte: code = %d (body %s), want 400", w.Code, w.Body)
	}
	if w := doReq(h, "GET", "/v1/tenants/nul", "", ""); w.Code != http.StatusNotFound {
		t.Errorf("tenant after a refused load: code = %d, want 404", w.Code)
	}

	// Drop: 204, then everything 404s; dropping again 404s.
	if w := doReq(h, "DELETE", "/v1/tenants/beta", "", ""); w.Code != http.StatusNoContent {
		t.Fatalf("drop: code = %d, want 204", w.Code)
	}
	if w := doReq(h, "GET", "/v1/tenants/beta", "", ""); w.Code != http.StatusNotFound {
		t.Fatalf("info after drop: code = %d, want 404", w.Code)
	}
	if w := doReq(h, "DELETE", "/v1/tenants/beta", "", ""); w.Code != http.StatusNotFound {
		t.Fatalf("double drop: code = %d, want 404", w.Code)
	}
}

func TestDaemonWritesAndVersionPinning(t *testing.T) {
	d := New(Config{Retain: 3})
	h := d.Handler()
	if w := doReq(h, "PUT", "/v1/tenants/pin", "text/plain", "module main {\n  seen(X) :- u(X).\n  u(c0).\n}\n"); w.Code != http.StatusCreated {
		t.Fatalf("load: code = %d (body %s)", w.Code, w.Body)
	}

	// Five updates publish versions 1..5; with Retain 3 only {3,4,5} stay
	// pinnable.
	for k := 1; k <= 5; k++ {
		body, _ := json.Marshal(writeReqJSON{Component: "main", Facts: fmt.Sprintf("u(c%d).", k)})
		w := doReq(h, "POST", "/v1/tenants/pin/update", "application/json", string(body))
		if w.Code != http.StatusOK {
			t.Fatalf("update %d: code = %d (body %s)", k, w.Code, w.Body)
		}
		var resp writeRespJSON
		decodeJSON(t, w, &resp)
		if resp.Version != uint64(k) || resp.Facts != 1 {
			t.Fatalf("update %d: resp = %+v, want version %d, 1 fact", k, resp, k)
		}
	}

	// A pinned read sees exactly the facts of its version: version v has
	// answers u(c0)..u(cv).
	for v := 3; v <= 5; v++ {
		w := doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)&version="+strconv.Itoa(v), "", "")
		if w.Code != http.StatusOK {
			t.Fatalf("pinned query v%d: code = %d (body %s)", v, w.Code, w.Body)
		}
		var resp queryRespJSON
		decodeJSON(t, w, &resp)
		if resp.Version != uint64(v) || len(resp.Answers) != v+1 {
			t.Fatalf("pinned query v%d: version %d with %d answers, want %d answers",
				v, resp.Version, len(resp.Answers), v+1)
		}
	}

	// Evicted pin: 410. Never-published pin: 404.
	if w := doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)&version=1", "", ""); w.Code != http.StatusGone {
		t.Fatalf("evicted pin: code = %d, want 410 (body %s)", w.Code, w.Body)
	}
	if w := doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)&version=99", "", ""); w.Code != http.StatusNotFound {
		t.Fatalf("future pin: code = %d, want 404 (body %s)", w.Code, w.Body)
	}

	// Retract narrows the tip back down and publishes version 6.
	body, _ := json.Marshal(writeReqJSON{Component: "main", Facts: "u(c4). u(c5)."})
	w := doReq(h, "POST", "/v1/tenants/pin/retract", "application/json", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("retract: code = %d (body %s)", w.Code, w.Body)
	}
	w = doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)", "", "")
	var resp queryRespJSON
	decodeJSON(t, w, &resp)
	if resp.Version != 6 || len(resp.Answers) != 4 {
		t.Fatalf("post-retract tip: version %d with %d answers, want v6 with 4 (c0..c3)", resp.Version, len(resp.Answers))
	}

	// A pinned read of version 5 still sees the retracted facts: snapshots
	// are immutable.
	w = doReq(h, "GET", "/v1/tenants/pin/query?q=seen(X)&version=5", "", "")
	decodeJSON(t, w, &resp)
	if w.Code != http.StatusOK || len(resp.Answers) != 6 {
		t.Fatalf("pinned v5 after retract: code %d, %d answers, want 200 with 6", w.Code, len(resp.Answers))
	}

	// Non-ground and non-fact writes are rejected without a version bump.
	for _, facts := range []string{"u(X).", "u(c9) :- u(c0).", "module m { u(c9). }"} {
		body, _ := json.Marshal(writeReqJSON{Component: "main", Facts: facts})
		if w := doReq(h, "POST", "/v1/tenants/pin/update", "application/json", string(body)); w.Code != http.StatusBadRequest {
			t.Errorf("update %q: code = %d, want 400", facts, w.Code)
		}
	}
}

// A pinned version's models keep their own Herbrand base: a later write
// that interns new atoms must not turn a total model of the pinned version
// into a partial one on the wire.
func TestDaemonPinnedStableStaysTotal(t *testing.T) {
	h := New(Config{}).Handler()
	if w := doReq(h, "PUT", "/v1/tenants/tot", "text/plain", "module m { p(a). q(X) :- p(X). }"); w.Code != http.StatusCreated {
		t.Fatalf("load: code = %d (body %s)", w.Code, w.Body)
	}
	body, _ := json.Marshal(writeReqJSON{Component: "m", Facts: "p(zz)."})
	if w := doReq(h, "POST", "/v1/tenants/tot/update", "application/json", string(body)); w.Code != http.StatusOK {
		t.Fatalf("update: code = %d (body %s)", w.Code, w.Body)
	}
	for _, v := range []string{"0", "1"} {
		w := doReq(h, "GET", "/v1/tenants/tot/stable?component=m&version="+v, "", "")
		if w.Code != http.StatusOK {
			t.Fatalf("stable v%s: code = %d (body %s)", v, w.Code, w.Body)
		}
		var resp struct {
			Models []struct {
				Total bool     `json:"total"`
				True  []string `json:"true"`
			} `json:"models"`
		}
		decodeJSON(t, w, &resp)
		if len(resp.Models) != 1 || !resp.Models[0].Total {
			t.Fatalf("stable v%s: %s, want one total model", v, w.Body)
		}
	}
}

// TestDaemonConcurrentTenantsNoBleed drives two tenants with racing writers
// and readers (run under -race in CI): answers must never leak across
// tenants, and each tenant's served version must be monotonically
// non-decreasing from any single client's point of view.
func TestDaemonConcurrentTenantsNoBleed(t *testing.T) {
	d := New(Config{Retain: 4})
	h := d.Handler()
	tenants := []string{"alpha", "beta"}
	for _, name := range tenants {
		if w := doReq(h, "PUT", "/v1/tenants/"+name, "text/plain", ownerSrc(name)); w.Code != http.StatusCreated {
			t.Fatalf("load %s: code = %d (body %s)", name, w.Code, w.Body)
		}
	}

	const writesPerTenant = 20
	const readers = 4
	var wg sync.WaitGroup
	errc := make(chan error, 2+readers*len(tenants))

	// One writer per tenant: appends tenant-tagged facts, checks version
	// strictly ascends in its own response stream (writers are serialized
	// per engine, and this is the only writer for its tenant).
	for _, name := range tenants {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			last := uint64(0)
			for k := 0; k < writesPerTenant; k++ {
				body, _ := json.Marshal(writeReqJSON{
					Component: "main",
					Facts:     fmt.Sprintf("extra_%s(e%d).", name, k),
				})
				w := doReq(h, "POST", "/v1/tenants/"+name+"/update", "application/json", string(body))
				if w.Code != http.StatusOK {
					errc <- fmt.Errorf("%s write %d: code %d (body %s)", name, k, w.Code, w.Body)
					return
				}
				var resp writeRespJSON
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					errc <- err
					return
				}
				if resp.Version <= last {
					errc <- fmt.Errorf("%s write %d: version %d not above %d", name, k, resp.Version, last)
					return
				}
				last = resp.Version
			}
		}(name)
	}

	// Readers per tenant: unpinned queries must only ever see the tenant's
	// own owner fact, and the served version must never move backwards.
	for _, name := range tenants {
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				last := uint64(0)
				for k := 0; k < 30; k++ {
					w := doReq(h, "GET", "/v1/tenants/"+name+"/query?q=owner(X)", "", "")
					if w.Code != http.StatusOK {
						errc <- fmt.Errorf("%s read %d: code %d (body %s)", name, k, w.Code, w.Body)
						return
					}
					var resp queryRespJSON
					if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
						errc <- err
						return
					}
					if len(resp.Answers) != 1 || resp.Answers[0]["X"] != name {
						errc <- fmt.Errorf("%s read %d: cross-tenant bleed, answers %v", name, k, resp.Answers)
						return
					}
					if resp.Version < last {
						errc <- fmt.Errorf("%s read %d: version went backwards %d -> %d", name, k, last, resp.Version)
						return
					}
					last = resp.Version
				}
			}(name)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Both tenants ended at their writer's final version.
	for _, name := range tenants {
		w := doReq(h, "GET", "/v1/tenants/"+name, "", "")
		var info tenantInfoJSON
		decodeJSON(t, w, &info)
		if info.Version != writesPerTenant {
			t.Errorf("%s final version = %d, want %d", name, info.Version, writesPerTenant)
		}
	}
}

// TestDaemonDeadlinePartialResults pins the deadline contract: a stable
// enumeration that cannot finish inside ?timeout= returns 206 with the
// truncation markers and whatever models it found, within timeout + a
// scheduling epsilon — never a hard error, never the full runtime.
func TestDaemonDeadlinePartialResults(t *testing.T) {
	d := New(Config{})
	h := d.Handler()
	// 8 cycles = 256 stable models, ~300ms+ to enumerate fully.
	if w := doReq(h, "PUT", "/v1/tenants/slow", "text/plain", winMoveCyclesSrc(8)); w.Code != http.StatusCreated {
		t.Fatalf("load: code = %d (body %s)", w.Code, w.Body)
	}

	const timeout = 25 * time.Millisecond
	// Generous epsilon: the engine observes the deadline at its next
	// checkpoint, and -race slows everything by ~10x.
	const epsilon = 3 * time.Second
	start := time.Now()
	w := doReq(h, "GET", "/v1/tenants/slow/stable?component=main&timeout="+timeout.String(), "", "")
	elapsed := time.Since(start)

	if w.Code != http.StatusPartialContent {
		t.Fatalf("code = %d, want 206 (body %s)", w.Code, w.Body)
	}
	if got := w.Header().Get("Ordlog-Truncated"); got != "true" {
		t.Fatalf("Ordlog-Truncated = %q, want true", got)
	}
	var resp stableRespJSON
	decodeJSON(t, w, &resp)
	if !resp.Truncated {
		t.Fatalf("body truncated = false, want true")
	}
	if resp.Count >= 256 {
		t.Fatalf("count = %d, want a strict subset of the 256 models", resp.Count)
	}
	if elapsed > timeout+epsilon {
		t.Fatalf("truncated request took %v, want <= %v + %v", elapsed, timeout, epsilon)
	}

	// The same enumeration with room to breathe is a clean 200 with all
	// 2^8 models and no truncation marker.
	w = doReq(h, "GET", "/v1/tenants/slow/stable?component=main&timeout=2m", "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("full enumeration: code = %d (body %s)", w.Code, w.Body)
	}
	decodeJSON(t, w, &resp)
	if resp.Truncated || resp.Count != 256 {
		t.Fatalf("full enumeration: truncated %v, count %d, want 256 clean models", resp.Truncated, resp.Count)
	}
	if got := w.Header().Get("Ordlog-Truncated"); got != "" {
		t.Fatalf("clean response carries Ordlog-Truncated = %q", got)
	}

	// A query under an unmeetably small deadline also degrades to 206 with
	// the marker and no answers, not an error.
	w = doReq(h, "GET", "/v1/tenants/slow/query?q=win(X)&component=main&timeout=1ns", "", "")
	if w.Code != http.StatusPartialContent {
		t.Fatalf("query under 1ns deadline: code = %d, want 206 (body %s)", w.Code, w.Body)
	}
	var qresp queryRespJSON
	decodeJSON(t, w, &qresp)
	if !qresp.Truncated || len(qresp.Answers) != 0 {
		t.Fatalf("query under 1ns deadline: truncated %v with %d answers, want truncated and none",
			qresp.Truncated, len(qresp.Answers))
	}

	// ?max= is a client-requested cap, not a deadline artifact: hitting it
	// is a clean 200, no truncation marker (the client knows it asked for
	// at most 3; the maximality filter may keep fewer).
	w = doReq(h, "GET", "/v1/tenants/slow/stable?component=main&max=3&timeout=2m", "", "")
	if w.Code != http.StatusOK {
		t.Fatalf("capped enumeration: code = %d, want 200 (body %s)", w.Code, w.Body)
	}
	decodeJSON(t, w, &resp)
	if resp.Truncated || resp.Count == 0 || resp.Count >= 256 {
		t.Fatalf("capped enumeration: truncated %v, count %d, want a small clean subset", resp.Truncated, resp.Count)
	}
}

// TestDaemonAdmission fills a tenant's only admission slot and checks that
// the next deadline-bounded request is rejected with 429 + Retry-After
// instead of queueing forever, and that the slot works again once freed.
func TestDaemonAdmission(t *testing.T) {
	d := New(Config{InFlight: 1})
	h := d.Handler()
	if w := doReq(h, "PUT", "/v1/tenants/busy", "text/plain", ownerSrc("busy")); w.Code != http.StatusCreated {
		t.Fatalf("load: code = %d (body %s)", w.Code, w.Body)
	}
	tn, ok := d.Registry().Get("busy")
	if !ok {
		t.Fatal("tenant not registered")
	}
	err := tn.Acquire(context.Background())
	if err != nil {
		t.Fatalf("could not take the only admission slot: %v", err)
	}

	w := doReq(h, "GET", "/v1/tenants/busy/query?q=owner(X)&timeout=30ms", "", "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated tenant: code = %d, want 429 (body %s)", w.Code, w.Body)
	}
	if got := w.Header().Get("Retry-After"); got == "" {
		t.Fatalf("429 without Retry-After")
	}

	// Saturation of one tenant must not reject others.
	if w := doReq(h, "PUT", "/v1/tenants/calm", "text/plain", ownerSrc("calm")); w.Code != http.StatusCreated {
		t.Fatalf("load calm: code = %d", w.Code)
	}
	if w := doReq(h, "GET", "/v1/tenants/calm/query?q=owner(X)&timeout=1s", "", ""); w.Code != http.StatusOK {
		t.Fatalf("other tenant under alpha saturation: code = %d (body %s)", w.Code, w.Body)
	}

	tn.Release()
	if w := doReq(h, "GET", "/v1/tenants/busy/query?q=owner(X)&timeout=1s", "", ""); w.Code != http.StatusOK {
		t.Fatalf("after release: code = %d (body %s)", w.Code, w.Body)
	}
	if got := tn.InFlight(); got != 0 {
		t.Fatalf("in-flight after all requests done = %d, want 0", got)
	}
}

// TestDaemonGracefulShutdownDrains runs the daemon on a real listener,
// parks a slow stable enumeration in flight, triggers shutdown, and checks
// that the in-flight request completes cleanly, new connections are
// refused, Serve returns nil, and no goroutines leak.
func TestDaemonGracefulShutdownDrains(t *testing.T) {
	d := New(Config{})
	h := d.Handler()
	if w := doReq(h, "PUT", "/v1/tenants/slow", "text/plain", winMoveCyclesSrc(6)); w.Code != http.StatusCreated {
		t.Fatalf("load: code = %d (body %s)", w.Code, w.Body)
	}

	before := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	srv := NewHTTPServer(h)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(ctx, srv, ln, 30*time.Second) }()

	// Park a slow request: 64 models takes tens of milliseconds, long
	// enough for the shutdown to start while it is in flight.
	type result struct {
		code  int
		count int
		err   error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/v1/tenants/slow/stable?component=main&timeout=1m")
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var body stableRespJSON
		err = json.NewDecoder(resp.Body).Decode(&body)
		resc <- result{code: resp.StatusCode, count: body.Count, err: err}
	}()

	// Give the request time to be admitted, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tn, ok := d.Registry().Get("slow"); ok && tn.InFlight() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", res.err)
	}
	if res.code != http.StatusOK || res.count != 64 {
		t.Fatalf("in-flight request: code %d count %d, want 200 with all 64 models", res.code, res.count)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil after clean drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	// The listener is gone: new connections are refused.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}

	// Everything the serving stack spawned has exited.
	leakDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after shutdown: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHardenedServerDefaults pins the slowloris hardening of the shared
// server constructor used by both ordlogd and ordlog -metrics-addr.
func TestHardenedServerDefaults(t *testing.T) {
	srv := NewHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slowloris headers can hold connections forever")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: idle keep-alives pile up")
	}
	if srv.MaxHeaderBytes <= 0 {
		t.Error("MaxHeaderBytes unset")
	}
	if srv.WriteTimeout != 0 {
		t.Error("WriteTimeout set: the handler owns deadline semantics, a transport write timeout would cut partial results off")
	}
}
