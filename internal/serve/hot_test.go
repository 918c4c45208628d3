package serve

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// readsSrc is the serving benchmark's read tenant at size (n, m): an edge
// chain with path/2 over it, a hop chain with reach/2 over it, one
// exception each in exc, and an unrelated items module.
func readsSrc(n, m int) string {
	var sb strings.Builder
	sb.WriteString("module base {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  edge(c%d, c%d).\n", i, i+1)
	}
	for i := 0; i < m; i++ {
		fmt.Fprintf(&sb, "  hop(h%d, h%d).\n", i, i+1)
	}
	sb.WriteString("  path(X, Y) :- edge(X, Y).\n  path(X, Z) :- path(X, Y), edge(Y, Z).\n")
	sb.WriteString("  reach(X, Y) :- hop(X, Y).\n  reach(X, Z) :- hop(X, Y), reach(Y, Z).\n}\n")
	fmt.Fprintf(&sb, "module exc extends base {\n  -path(X, c%d) :- edge(X, c%d).\n  -reach(X, h%d) :- hop(X, h%d).\n}\n",
		n/2, n/2, m/2, m/2)
	sb.WriteString("module items {\n")
	for j := 0; j < n/4; j++ {
		fmt.Fprintf(&sb, "  item(d%d).\n", j)
	}
	sb.WriteString("  ok(X) :- item(X).\n}\n")
	return sb.String()
}

// hotGoals are query-hot's sixteen goals on readsSrc(400, 100): four each
// of a scan, a point read, a join and a reach.
func hotGoals() []string {
	var gs []string
	for r := 0; r < 16; r++ {
		a := r / 4
		switch r % 4 {
		case 0:
			gs = append(gs, fmt.Sprintf("path(c%d, X)", a))
		case 1:
			gs = append(gs, fmt.Sprintf("path(c%d, c%d)", a, 9+r%191))
		case 2:
			gs = append(gs, fmt.Sprintf("path(c%d, X), edge(X, Y)", a))
		case 3:
			gs = append(gs, fmt.Sprintf("reach(h%d, X)", a))
		}
	}
	return gs
}

// engines are the configurations a hot read is measured on: the default
// engine, whose goals answer from the component's least model, and the
// goal-directed one, whose goals answer from their slices' models.
var engines = []struct {
	name string
	cfg  core.Config
}{{"full", core.Config{}}, {"goal", core.Config{GoalDirected: true}}}

// sink is a ResponseWriter a request can reuse: it keeps the status and
// the byte count, and clears its header map in place.
type sink struct {
	h    http.Header
	code int
	n    int
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(b []byte) (int, error) { s.n += len(b); return len(b), nil }
func (s *sink) reset()                      { clear(s.h); s.code, s.n = 0, 0 }

// hotDaemon loads the read tenant into a daemon on cfg and returns its
// handler and one reusable GET /query request per goal, in exc.
func hotDaemon(tb testing.TB, cfg core.Config, goals []string) (http.Handler, []*http.Request) {
	h := New(Config{Engine: cfg}).Handler()
	if w := doReq(h, "PUT", "/v1/tenants/reads", "text/plain", readsSrc(400, 100)); w.Code != http.StatusCreated {
		tb.Fatalf("load: code = %d (body %s)", w.Code, w.Body)
	}
	reqs := make([]*http.Request, len(goals))
	for i, g := range goals {
		reqs[i] = httptest.NewRequest("GET", "/v1/tenants/reads/query?component=exc&q="+url.QueryEscape(g), nil)
	}
	return h, reqs
}

// TestServeHotQueryAllocs pins the allocations of a memo-hit GET /query
// through Daemon.Handler, with the request and the writer reused, on each
// engine. What is left is the mux's path match, the goal text's
// unescaping, the two response headers and the head's buffer: no parse,
// no url.Values, no per-tenant counter lookup, no admission closure and
// no rendering — the goal is the tenant's prepared one and the rows are
// the bytes its model kept. The bound is the largest count within 1.25
// times the count measured (6 on each engine while admission returned a
// release closure; 29 on the default engine and 30 goal-directed before
// goals were prepared per tenant).
func TestServeHotQueryAllocs(t *testing.T) {
	const max = 6 // measured 5 on each engine
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			h, reqs := hotDaemon(t, e.cfg, []string{"path(c399, X)"})
			w := &sink{h: http.Header{}}
			h.ServeHTTP(w, reqs[0]) // the miss
			if w.code != http.StatusOK {
				t.Fatalf("query: code = %d", w.code)
			}
			before := obs.Default().Snap()
			n := testing.AllocsPerRun(200, func() {
				w.reset()
				h.ServeHTTP(w, reqs[0])
			})
			if w.code != http.StatusOK {
				t.Fatalf("query: code = %d", w.code)
			}
			d := obs.Default().Snap().Diff(before)
			if obs.On() && (d["core.answers.memo.misses"] != 0 || d["core.answers.memo.hits"] == 0 || d["core.goals.misses"] != 0) {
				t.Fatalf("memo hits %d, misses %d and goal misses %d in the window, want memo hits only",
					d["core.answers.memo.hits"], d["core.answers.memo.misses"], d["core.goals.misses"])
			}
			if n > max {
				t.Errorf("%.0f allocs per memo-hit request, want <= %d", n, max)
			}
			t.Logf("%.0f allocs per memo-hit request", n)
		})
	}
}

// BenchmarkServeQueryHot is query-hot's shape through the handler: the
// sixteen hot goals on readsSrc(400, 100), each asked once, then in
// Zipf(1.2) proportions — every request a memo hit — with the requests and
// the writer reused.
func BenchmarkServeQueryHot(b *testing.B) {
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			h, reqs := hotDaemon(b, e.cfg, hotGoals())
			z := workload.NewZipf(rand.New(rand.NewSource(1)), 1.2, len(reqs))
			mix := make([]int, 1024)
			for i := range mix {
				mix[i] = z.Next()
			}
			w := &sink{h: http.Header{}}
			for _, r := range reqs {
				w.reset()
				h.ServeHTTP(w, r)
				if w.code != http.StatusOK {
					b.Fatalf("%s: code = %d", r.URL, w.code)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.reset()
				h.ServeHTTP(w, reqs[mix[i%len(mix)]])
			}
		})
	}
}

// goalBound is the number of goals a tenant keeps prepared
// (core's goalCacheSize).
const goalBound = 256

// TestServePreparedGoals: a malformed goal, or a goal with clauses after
// it, answers 400 on every repeat and is never kept; ten times the bound of distinct goals leaves at most the
// bound kept (each is a miss, every one past the bound evicts one); a
// repeat of a kept goal is a hit.
func TestServePreparedGoals(t *testing.T) {
	if !obs.On() {
		t.Skip("the prepared map is observed through its counters")
	}
	h := New(Config{}).Handler()
	if w := doReq(h, "PUT", "/v1/tenants/g", "text/plain", chainSrc); w.Code != http.StatusCreated {
		t.Fatalf("load: code = %d (body %s)", w.Code, w.Body)
	}
	ask := func(goal string, code int) {
		t.Helper()
		w := doReq(h, "GET", "/v1/tenants/g/query?q="+url.QueryEscape(goal), "", "")
		if w.Code != code {
			t.Fatalf("%s: code = %d, want %d (body %s)", goal, w.Code, code, w.Body)
		}
	}
	// A malformed goal, and goals followed by clauses, answer 400 and are
	// never kept: a clause after the goal is refused, not dropped.
	for _, bad := range []string{"path(c0, X", "path(c0, X). edge(c9, c10)", "path(c0, X). foo :- bar"} {
		before := obs.Default().Snap()
		for i := 0; i < 3; i++ {
			ask(bad, http.StatusBadRequest)
		}
		if d := obs.Default().Snap().Diff(before); d["core.goals.hits"] != 0 || d["core.goals.misses"] != 0 {
			t.Fatalf("%q moved core.goals.{hits,misses} by %d, %d: it was kept", bad, d["core.goals.hits"], d["core.goals.misses"])
		}
	}
	before := obs.Default().Snap()
	const distinct = 10 * goalBound
	for i := 0; i < distinct; i++ {
		ask(fmt.Sprintf("edge(c%d, X)", i), http.StatusOK)
	}
	d := obs.Default().Snap().Diff(before)
	if d["core.goals.misses"] != distinct || d["core.goals.hits"] != 0 {
		t.Fatalf("%d distinct goals: %d misses, %d hits", distinct, d["core.goals.misses"], d["core.goals.hits"])
	}
	if kept := d["core.goals.misses"] - d["core.goals.evictions"]; kept > goalBound {
		t.Fatalf("%d distinct goals left %d kept, want at most %d", distinct, kept, goalBound)
	}
	before = obs.Default().Snap()
	ask(fmt.Sprintf("edge(c%d, X)", distinct-1), http.StatusOK)
	ask("path(c0, X", http.StatusBadRequest)
	if d := obs.Default().Snap().Diff(before); d["core.goals.hits"] != 1 || d["core.goals.misses"] != 0 {
		t.Fatalf("the last goal again, then the malformed one: core.goals.{hits,misses} moved by %d, %d; want 1, 0",
			d["core.goals.hits"], d["core.goals.misses"])
	}
}

// TestServeCountersReadBack: the per-op and per-tenant counters, resolved
// once, still count under their exported names — serve.ops.<op> and
// serve.tenant.<sanitised name>.{reads,writes,loads} — by one per request.
func TestServeCountersReadBack(t *testing.T) {
	h := New(Config{}).Handler()
	const tenant = "counted/one" // sanitised to one path segment
	seg := obs.SanitizeSegment(tenant)
	path := "/v1/tenants/" + url.PathEscape(tenant)
	before := obs.Default().Snap()
	if w := doReq(h, "PUT", path, "text/plain", chainSrc); w.Code != http.StatusCreated {
		t.Fatalf("load: code = %d (body %s)", w.Code, w.Body)
	}
	if w := doReq(h, "GET", path+"/query?q=path(c0,X)", "", ""); w.Code != http.StatusOK {
		t.Fatalf("query: code = %d (body %s)", w.Code, w.Body)
	}
	if w := doReq(h, "GET", path+"/prove?lit=path(c0,c1)", "", ""); w.Code != http.StatusOK {
		t.Fatalf("prove: code = %d (body %s)", w.Code, w.Body)
	}
	if w := doReq(h, "POST", path+"/update", "application/json", `{"component":"main","facts":"edge(c3, c4)."}`); w.Code != http.StatusOK {
		t.Fatalf("update: code = %d (body %s)", w.Code, w.Body)
	}
	d := obs.Default().Snap().Diff(before)
	for name, want := range map[string]int64{
		"serve.requests":                  4,
		"serve.ops.load":                  1,
		"serve.ops.query":                 1,
		"serve.ops.prove":                 1,
		"serve.ops.update":                1,
		"serve.tenant." + seg + ".loads":  1,
		"serve.tenant." + seg + ".reads":  2,
		"serve.tenant." + seg + ".writes": 1,
	} {
		if d[name] != want {
			t.Errorf("%s moved by %d, want %d", name, d[name], want)
		}
	}
	var served map[string]any
	decodeJSON(t, doReq(h, "GET", "/debug/metrics", "", ""), &served)
	for _, name := range []string{"serve.ops.query", "serve.tenant." + seg + ".reads", "serve.tenant." + seg + ".writes"} {
		if v, ok := served[name].(float64); !ok || v < 1 || v != math.Trunc(v) {
			t.Errorf("/debug/metrics %s = %v, want a count of at least 1", name, served[name])
		}
	}
}
