package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"

	"repro/internal/wal"
)

// metricValue is one reported number. For an end-to-end metric Value is the
// median of Rounds (the per-round values; for setup_s, the per-set-up
// values) and Min/Max are the run's own noise report.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
}

// record is the full result of one run: what -record appends to a result
// set and -compare reads back. The provenance fields exist so that runs
// from different hosts, core counts or sizes are never compared.
type record struct {
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Profile    string `json:"profile"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	SyncPolicy string `json:"sync_policy"`
	StreamHash string `json:"stream_hash"`

	Ops struct {
		Fixture  int `json:"fixture"`
		Warm     int `json:"warm"`
		Rounds   int `json:"rounds"`
		PerRound int `json:"per_round"`
	} `json:"ops"`
	Fixture map[string]int `json:"fixture"` // sizes the stream was built from

	Classes []classStat `json:"classes,omitempty"`
	Cliffs  []cliff     `json:"cliffs,omitempty"`
	Checks  []string    `json:"checks,omitempty"`

	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	FirstFailure string                 `json:"first_failure,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
}

// commit is the VCS revision the binary was built from, when the build
// could see one ("+dirty" with uncommitted changes).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func newRecord(rc runConfig, s *stream, trace bool) *record {
	p := rc.prof
	r := &record{
		Workload: rc.workload, Trace: trace, Commit: commit(),
		Seed: rc.seed, Seconds: rc.seconds, Profile: p.name,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		SyncPolicy: "none (memory-only tenant)",
		StreamHash: s.hash(),
		Metrics:    make(map[string]metricValue),
	}
	r.Ops.Fixture, r.Ops.Warm, r.Ops.Rounds, r.Ops.PerRound = len(s.fixture), len(s.warm), len(s.rounds), len(s.rounds[0])
	if s.durable {
		r.SyncPolicy = wal.SyncInterval.String()
		r.Fixture = map[string]int{
			"kb": p.kb, "churn_window": p.churnWindow, "mixed_window": p.mixedWindow,
			"compact_every": p.compactEvery, "checkpoint_every": p.checkpointEvery,
			"rotate_records": p.rotateRecords, "keep_checkpoints": p.keepCheckpoints,
			"replayed_records": p.fixtureOps % p.checkpointEvery,
		}
	} else {
		r.Fixture = map[string]int{"chain_n": p.chainN, "hop_m": p.hopM, "distinct_goals": len(s.goals)}
	}
	return r
}

// setMedian stores an end-to-end metric as the median of its per-round
// values.
func (r *record) setMedian(name string, rounds []float64) {
	lo, hi := minMax(rounds)
	r.Metrics[name] = metricValue{Value: median(rounds), Unit: specOf(endToEnd, name).unit, Rounds: rounds, Min: lo, Max: hi}
}

func (r *record) addRounds(setups []float64, rounds []roundStat) {
	col := func(f func(roundStat) float64) []float64 {
		v := make([]float64, len(rounds))
		for i, rs := range rounds {
			v[i] = f(rs)
		}
		return v
	}
	r.setMedian("setup_s", setups)
	r.setMedian("ops_per_s", col(func(s roundStat) float64 { return s.opsPerS }))
	r.setMedian("op_p50_ms", col(func(s roundStat) float64 { return s.p50 }))
	r.setMedian("op_p90_ms", col(func(s roundStat) float64 { return s.p90 }))
	r.setMedian("cpu_ms_per_op", col(func(s roundStat) float64 { return s.cpuMs }))
	r.setMedian("heap_mb", col(func(s roundStat) float64 { return s.heapMB }))
}

// report prints the run for a human: provenance, class bands, per-round
// values.
func (r *record) report(w io.Writer) {
	fmt.Fprintf(w, "%s  seed=%d seconds=%d profile=%s commit=%s %s nproc=%d gomaxprocs=%d sync=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Profile, r.Commit, r.GoVersion, r.NProc, r.GOMAXPROCS, r.SyncPolicy)
	fmt.Fprintf(w, "ops: fixture %d, warm-up %d, timed %d rounds x %d (stream %s)\n",
		r.Ops.Fixture, r.Ops.Warm, r.Ops.Rounds, r.Ops.PerRound, r.StreamHash)
	for _, c := range r.Classes {
		fmt.Fprintf(w, "class %-12s %6d ops  %5.1f%%  median %.4g ms  (latency band %d)\n", c.Name, c.Ops, c.Share, c.MedianMs, c.Band)
	}
	for _, c := range r.Cliffs {
		fmt.Fprintf(w, "p%.0f falls in band %q, %.1f percentile points from the nearest band edge\n", c.Percentile, c.Classes, c.Distance)
	}
	if !r.Trace {
		fmt.Fprintf(w, "drift from round 1 to round %d: op_p50_ms %+.1f%%, heap_mb %+.1f%%\n",
			r.Ops.Rounds, 100*r.drift("op_p50_ms"), 100*r.drift("heap_mb"))
	}
	for _, spec := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		m, ok := r.Metrics[spec.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-34s %12.6g %-5s", spec.name, m.Value, m.Unit)
		if len(m.Rounds) > 0 {
			fmt.Fprintf(w, "  rounds %.5g  (min %.5g max %.5g)", m.Rounds, m.Min, m.Max)
		}
		fmt.Fprintln(w)
	}
	for _, c := range r.Checks {
		fmt.Fprintln(w, "check:", c)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.Attempted, r.Failed)
	if r.FirstFailure != "" {
		fmt.Fprintln(w, "first failure:", r.FirstFailure)
	}
}

// appendTo appends the record as one JSON line to a result-set file.
func (r *record) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultLine is the last line of standard output: the benchmark contract's
// result object.
func (r *record) resultLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for name, m := range r.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(out)
}
