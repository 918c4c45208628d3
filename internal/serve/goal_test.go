package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// chainSrc is a right-recursive transitive closure whose goal-directed
// slice for path(c0, _) is a strict subset of the full grounding.
const chainSrc = `
module main {
  edge(c0, c1). edge(c1, c2). edge(c2, c3).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- path(X, Y), edge(Y, Z).
}
`

// TestDaemonGoalDirected drives a goal-directed daemon end to end: ?q=
// answers come from per-goal slices, repeated queries with the same
// binding pattern hit the per-snapshot slice cache, an identical repeat
// answers from the model's memoised answers and a renamed one does not,
// an update invalidates the cache (answers reflect the new fact base), and
// ?version= pinning keeps answering from the pinned snapshot's own slices.
func TestDaemonGoalDirected(t *testing.T) {
	d := New(Config{Retain: 3, Engine: core.Config{GoalDirected: true}})
	h := d.Handler()
	if w := doReq(h, "PUT", "/v1/tenants/gd", "text/plain", chainSrc); w.Code != http.StatusCreated {
		t.Fatalf("load: code = %d (body %s)", w.Code, w.Body)
	}

	answers := func(target string, wantCode int) []map[string]string {
		t.Helper()
		w := doReq(h, "GET", target, "", "")
		if w.Code != wantCode {
			t.Fatalf("GET %s: code = %d, want %d (body %s)", target, w.Code, wantCode, w.Body)
		}
		var resp queryRespJSON
		decodeJSON(t, w, &resp)
		return resp.Answers
	}
	reached := func(as []map[string]string, varName string) string {
		var names []string
		for _, a := range as {
			names = append(names, a[varName])
		}
		return strings.Join(names, ",")
	}

	before := obs.Default().Snap()
	if got := reached(answers("/v1/tenants/gd/query?q=path(c0,X)", http.StatusOK), "X"); got != "c1,c2,c3" {
		t.Fatalf("goal-directed answers = %q, want c1,c2,c3", got)
	}
	// Same binding pattern, different variable name: a slice-cache hit.
	if got := reached(answers("/v1/tenants/gd/query?q=path(c0,Y)", http.StatusOK), "Y"); got != "c1,c2,c3" {
		t.Fatalf("renamed-variable answers = %q, want c1,c2,c3", got)
	}
	diff := obs.Default().Snap().Diff(before)
	if diff["relevance.cache.misses"] < 1 || diff["relevance.cache.hits"] < 1 {
		t.Fatalf("slice cache counters = %v, want >=1 miss (first query) and >=1 hit (renamed repeat)", diff)
	}
	// The first miss was cut: nothing had been cut yet on v0, and no model
	// computed. /debug/metrics serves the route counters beside the cache's.
	if diff["core.route.cut"] < 1 {
		t.Fatalf("core.route.cut moved by %d, want >= 1 for the first miss", diff["core.route.cut"])
	}
	// Both spellings' answers now sit on the model the goal's cache entry
	// answers from: an identical request answers from them, one
	// answer-memo hit; a third spelling, a different query on the same
	// model, is a memo miss.
	memo := func(q, varName string) (hits, misses int64) {
		t.Helper()
		before := obs.Default().Snap()
		if got := reached(answers("/v1/tenants/gd/query?q="+q, http.StatusOK), varName); got != "c1,c2,c3" {
			t.Fatalf("%s answers = %q, want c1,c2,c3", q, got)
		}
		d := obs.Default().Snap().Diff(before)
		return d["core.answers.memo.hits"], d["core.answers.memo.misses"]
	}
	if hits, misses := memo("path(c0,Y)", "Y"); hits != 1 || misses != 0 {
		t.Errorf("identical repeat: core.answers.memo.{hits,misses} moved by %d, %d; want 1, 0", hits, misses)
	}
	if hits, misses := memo("path(c0,X)", "X"); hits != 1 || misses != 0 {
		t.Errorf("first spelling's repeat: core.answers.memo.{hits,misses} moved by %d, %d; want 1, 0", hits, misses)
	}
	if hits, misses := memo("path(c0,Z)", "Z"); hits != 0 || misses != 1 {
		t.Errorf("renamed query: core.answers.memo.{hits,misses} moved by %d, %d; want 0, 1", hits, misses)
	}
	var served map[string]any
	decodeJSON(t, doReq(h, "GET", "/debug/metrics", "", ""), &served)
	for _, name := range []string{"core.route.cut", "core.route.model", "core.route.switches", "core.answers.memo.hits", "core.answers.memo.misses"} {
		if _, ok := served[name]; !ok {
			t.Errorf("/debug/metrics lacks %s", name)
		}
	}

	// Prove goes through the slice too.
	w := doReq(h, "GET", "/v1/tenants/gd/prove?lit=path(c0,c3)", "", "")
	var pr proveRespJSON
	decodeJSON(t, w, &pr)
	if pr.Proved == nil || !*pr.Proved {
		t.Fatalf("prove path(c0,c3): %+v, want proved", pr)
	}

	// An update publishes version 1; the tip's fresh snapshot starts with
	// an empty slice cache, so the same query sees the new edge.
	body, _ := json.Marshal(writeReqJSON{Component: "main", Facts: "edge(c3, c4)."})
	if w := doReq(h, "POST", "/v1/tenants/gd/update", "application/json", string(body)); w.Code != http.StatusOK {
		t.Fatalf("update: code = %d (body %s)", w.Code, w.Body)
	}
	if got := reached(answers("/v1/tenants/gd/query?q=path(c0,X)", http.StatusOK), "X"); got != "c1,c2,c3,c4" {
		t.Fatalf("post-update answers = %q, want c1,c2,c3,c4", got)
	}
	// The pinned version still answers from its own (pre-update) slices.
	if got := reached(answers("/v1/tenants/gd/query?q=path(c0,X)&version=0", http.StatusOK), "X"); got != "c1,c2,c3" {
		t.Fatalf("pinned v0 answers = %q, want c1,c2,c3", got)
	}
	// Goals never asked before are cut on either version from the same
	// ground program: v0 does not see the instances v1 appended, v1 does.
	if got := reached(answers("/v1/tenants/gd/query?q=path(X,c3)&version=0", http.StatusOK), "X"); got != "c0,c1,c2" {
		t.Fatalf("cold pinned v0 answers = %q, want c0,c1,c2", got)
	}
	if got := reached(answers("/v1/tenants/gd/query?q=path(X,c4)", http.StatusOK), "X"); got != "c0,c1,c2,c3" {
		t.Fatalf("cold v1 answers = %q, want c0,c1,c2,c3", got)
	}
	// A retract kills instances through v2's dead set; v1 keeps them.
	body, _ = json.Marshal(writeReqJSON{Component: "main", Facts: "edge(c1, c2)."})
	if w := doReq(h, "POST", "/v1/tenants/gd/retract", "application/json", string(body)); w.Code != http.StatusOK {
		t.Fatalf("retract: code = %d (body %s)", w.Code, w.Body)
	}
	if got := reached(answers("/v1/tenants/gd/query?q=path(X,c4)", http.StatusOK), "X"); got != "c2,c3" {
		t.Fatalf("post-retract answers = %q, want c2,c3", got)
	}
	if got := reached(answers("/v1/tenants/gd/query?q=path(X,c4)&version=1", http.StatusOK), "X"); got != "c0,c1,c2,c3" {
		t.Fatalf("pinned v1 answers = %q, want c0,c1,c2,c3", got)
	}
}
