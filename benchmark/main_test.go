package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func shortConfig(t *testing.T, workload string, seed int64) runConfig {
	return runConfig{workload: workload, prof: shortProfile, seed: seed, seconds: refSeconds, outDir: t.TempDir(), log: io.Discard}
}

// Same seed, byte-identical stream; another seed, another stream.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		hash := func(seed int64) string {
			s, err := newStream(w.name, shortProfile, seed, refSeconds)
			if err != nil {
				t.Fatal(err)
			}
			return s.hash()
		}
		if a, b := hash(1), hash(1); a != b {
			t.Errorf("%s: seed 1 gave streams %s and %s", w.name, a, b)
		}
		if hash(1) == hash(2) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
	}
}

// checkMetrics requires every metric of the table in the record, with the
// table's unit and a finite value.
func checkMetrics(t *testing.T, rec *record, table []metricSpec) {
	t.Helper()
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %s", rec.Workload, rec.Correct, rec.Attempted, rec.Failed, rec.FirstFailure)
	}
	if len(rec.Metrics) != len(table) {
		t.Errorf("%s: %d metrics, want %d", rec.Workload, len(rec.Metrics), len(table))
	}
	for _, m := range table {
		v, ok := rec.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", rec.Workload, m.name)
		case v.Unit != m.unit:
			t.Errorf("%s: %s has unit %q, want %q", rec.Workload, m.name, v.Unit, m.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", rec.Workload, m.name, v.Value)
		case m.bound > 0 && v.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", rec.Workload, m.name, v.Value)
		}
	}
	line, err := rec.resultLine()
	if err != nil {
		t.Fatal(err)
	}
	var result map[string]json.RawMessage
	if err := json.Unmarshal(line, &result); err != nil {
		t.Fatalf("result line: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := result[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(result) != 4 {
		t.Errorf("result line has %d keys, want 4", len(result))
	}
}

// The short profile drives all four workloads end to end: set-up, warm-up,
// rounds, the per-op oracle, the reference check or the durability round
// trip.
func TestShortRun(t *testing.T) {
	for _, w := range workloads {
		rec, err := runServe(context.Background(), shortConfig(t, w.name, 1))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, rec, endToEnd)
		if len(rec.Cliffs) != 2 || len(rec.Checks) == 0 {
			t.Errorf("%s: cliffs %v, checks %v", w.name, rec.Cliffs, rec.Checks)
		}
	}
}

// The traced run emits every per-layer metric, counts flagged exact repeat
// across two runs, and the trace file carries well-formed spans.
func TestShortTrace(t *testing.T) {
	for _, w := range workloads {
		rc := shortConfig(t, w.name, 1)
		first, err := runTrace(context.Background(), rc)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, first, perLayer)
		second, err := runTrace(context.Background(), rc)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, m := range perLayer {
			if a, b := first.Metrics[m.name].Value, second.Metrics[m.name].Value; m.exact && a != b {
				t.Errorf("%s: exact count %s read %v then %v", w.name, m.name, a, b)
			}
		}
		raw, err := os.ReadFile(filepath.Join(rc.outDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct{ Spans []span }
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatal(err)
		}
		ops := 0
		for i, sp := range tf.Spans {
			if sp.Name == "" || sp.EndNs < sp.StartNs || sp.Parent >= int32(i) || sp.Parent < -1 {
				t.Fatalf("%s: malformed span %d: %+v", w.name, i, sp)
			}
			if sp.Parent >= 0 && tf.Spans[sp.Parent].OpID != sp.OpID {
				t.Fatalf("%s: span %d and its parent disagree on the op id", w.name, i)
			}
			if sp.Name == "op/core" {
				ops++
			}
		}
		if ops != first.Attempted/2 {
			t.Errorf("%s: %d op/core spans for %d traced ops", w.name, ops, first.Attempted/2)
		}
	}
}

// The workload predictions the README states, at smoke size.
func TestLayerPredictions(t *testing.T) {
	get := func(workload, metric string) float64 {
		rec, err := runTrace(context.Background(), shortConfig(t, workload, 2))
		if err != nil {
			t.Fatal(err)
		}
		return rec.Metrics[metric].Value
	}
	if v := get("query-hot", "relevance.cache.hit_ratio"); v < 0.99 {
		t.Errorf("query-hot slice-cache hit ratio %v, want >= 0.99", v)
	}
	if v := get("query-cold", "relevance.cache.hit_ratio"); v != 0 {
		t.Errorf("query-cold slice-cache hit ratio %v, want 0", v)
	}
	if v := get("mixed-rw", "core.update.reground_ratio"); v != 0 {
		t.Errorf("mixed-rw reground ratio %v, want 0", v)
	}
	if v := get("update-churn", "core.update.reground_ratio"); v < 0.2 || v > 0.4 {
		t.Errorf("update-churn reground ratio %v, want about 0.3", v)
	}
}

// BENCHMARK.json is the contract the driver reads; spec.go is what the
// program reports. They must say the same thing.
func TestBenchmarkJSONMirrorsSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want %+v", i, doc.Workloads[i], w)
		}
	}
	same := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s metric %d is %+v, want %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale map[string]float64, jitter float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < minRuns; i++ {
			rec := &record{Workload: "query-hot", Profile: "full", Seconds: 10, Seed: int64(i), Correct: true, Metrics: map[string]metricValue{}}
			for _, m := range endToEnd {
				f := 1 + jitter*float64(i-minRuns/2)
				if s, ok := scale[m.name]; ok {
					f *= s
				}
				rec.Metrics[m.name] = metricValue{Value: 100 * f, Unit: m.unit}
			}
			if err := rec.appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	bound := map[string]float64{}
	for _, m := range endToEnd {
		bound[m.name] = m.bound
	}
	base := write("a.jsonl", nil, 0.001)
	for _, tc := range []struct {
		name      string
		scale     map[string]float64
		jitter    float64
		regressed bool
	}{
		{"same", nil, 0.001, false},
		{"slower-within-bound", map[string]float64{"op_p50_ms": 1 + bound["op_p50_ms"]/2}, 0.001, false},
		{"slower", map[string]float64{"op_p50_ms": 1 + 2*bound["op_p50_ms"]}, 0.001, true},
		{"less-throughput", map[string]float64{"ops_per_s": 1 - 2*bound["ops_per_s"]}, 0.001, true},
		{"more-throughput", map[string]float64{"ops_per_s": 1 + 2*bound["ops_per_s"]}, 0.001, false},
		{"noisy", nil, 0.2, false},
	} {
		got, err := compareFiles(io.Discard, base, write(tc.name+".jsonl", tc.scale, tc.jitter))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v", tc.name, got, tc.regressed)
		}
	}
	if _, err := compareFiles(io.Discard, base, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("comparing with a missing file succeeded")
	}
}
