package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("eval.fired")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("eval.fired") != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("core.version")
	g.Set(3)
	g.Max(7)
	g.Max(2)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistSynchronised(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("batch.latency")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if sum := h.Summary(); sum.Count() != 800 {
		t.Fatalf("histogram count = %d, want 800", sum.Count())
	}
}

func TestSnapDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ground.instances")
	c.Add(10)
	r.Gauge("core.version").Set(1)
	before := r.Snap()
	c.Add(5)
	r.Counter("eval.rounds").Add(2)
	after := r.Snap()
	d := after.Diff(before)
	if d["ground.instances"] != 5 {
		t.Fatalf("diff ground.instances = %d, want 5", d["ground.instances"])
	}
	if d["eval.rounds"] != 2 {
		t.Fatalf("diff eval.rounds = %d, want 2", d["eval.rounds"])
	}
	if _, ok := d["core.version"]; ok {
		t.Fatal("unchanged gauge should be dropped from the diff")
	}
}

func TestSnapIncludesHistogramCount(t *testing.T) {
	r := NewRegistry()
	r.Histogram("batch.latency").Observe(time.Millisecond)
	if got := r.Snap()["batch.latency.count"]; got != 1 {
		t.Fatalf("snap histogram count = %d, want 1", got)
	}
}

func TestWriteJSONValidAndSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two").Add(2)
	r.Counter("a.one").Add(1)
	r.Gauge("c.gauge").Set(-3)
	r.Histogram("d.hist").Observe(5 * time.Millisecond)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	var m map[string]any
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, out)
	}
	if m["a.one"].(float64) != 1 || m["b.two"].(float64) != 2 || m["c.gauge"].(float64) != -3 {
		t.Fatalf("wrong values in export: %v", m)
	}
	hist, ok := m["d.hist"].(map[string]any)
	if !ok {
		t.Fatalf("histogram not exported as object: %v", m["d.hist"])
	}
	if hist["count"].(float64) != 1 {
		t.Fatalf("histogram count = %v, want 1", hist["count"])
	}
	if strings.Index(out, `"a.one"`) > strings.Index(out, `"b.two"`) {
		t.Fatal("keys are not sorted")
	}
}

func TestHandlerServesJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("x.y").Add(9)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("handler body is not valid JSON: %v", err)
	}
	if m["x.y"].(float64) != 9 {
		t.Fatalf("handler body = %v", m)
	}
}

func TestEnabledToggle(t *testing.T) {
	if !On() {
		t.Fatal("metrics should default to enabled")
	}
	SetEnabled(false)
	if On() {
		t.Fatal("SetEnabled(false) did not take")
	}
	SetEnabled(true)
	if !On() {
		t.Fatal("SetEnabled(true) did not take")
	}
}

func TestEventString(t *testing.T) {
	ev := E("update",
		F("", "v0 -> v1"),
		F("comp", "main"),
		F("assert", 2),
		F("mode", "incremental"),
	)
	want := "update: v0 -> v1 comp=main assert=2 mode=incremental"
	if got := ev.String(); got != want {
		t.Fatalf("event rendering = %q, want %q", got, want)
	}
	if ev.Get("mode") != "incremental" {
		t.Fatalf("Get(mode) = %v", ev.Get("mode"))
	}
	if ev.Get("absent") != nil {
		t.Fatalf("Get(absent) = %v", ev.Get("absent"))
	}
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Counter("shared").Inc()
			r.Gauge("g").Set(1)
			r.Histogram("h").Observe(time.Microsecond)
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 16 {
		t.Fatalf("shared counter = %d, want 16", got)
	}
}

func TestSanitizeSegment(t *testing.T) {
	cases := map[string]string{
		"":             "_",
		"tenant-1":     "tenant-1",
		"Tenant_OK":    "Tenant_OK",
		"a.b.c":        "a_b_c", // dots would shift the metric family prefix
		"sp ace/slash": "sp_ace_slash",
		"ünïcode":      "__n__code",
	}
	for in, want := range cases {
		if got := SanitizeSegment(in); got != want {
			t.Errorf("SanitizeSegment(%q) = %q, want %q", in, got, want)
		}
	}
}
