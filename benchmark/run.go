package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
)

// runConfig is one invocation: which stream, at what size, and where the
// run may write.
type runConfig struct {
	workload string
	prof     profile
	seed     int64
	seconds  int
	outDir   string    // traces and scratch durability directories
	log      io.Writer // the human-readable report
}

// daemonConfig is the ordlogd configuration a stream runs under; dataDir is
// ignored by the memory-only read workloads.
func daemonConfig(s *stream, p profile, dataDir string) serve.Config {
	cfg := serve.Config{Engine: s.engine}
	if s.durable {
		cfg.DataDir = dataDir
		cfg.CheckpointEvery = p.checkpointEvery
		cfg.Sync = wal.SyncInterval
		cfg.RotateRecords = p.rotateRecords
		cfg.KeepCheckpoints = p.keepCheckpoints
	}
	return cfg
}

// putProgram loads the stream's program into the daemon over the wire API.
func putProgram(d *serve.Daemon, s *stream) error {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPut, "/v1/tenants/"+s.tenant, strings.NewReader(s.source))
	d.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		return fmt.Errorf("PUT tenant %s: HTTP %d: %s", s.tenant, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return nil
}

// writeFixture builds the recovery fixture of a durable workload in dir: a
// fresh durable tenant that has taken the stream's fixture writes and been
// closed cleanly. It returns the harness's shadow of the resulting state.
func writeFixture(s *stream, p profile, dir string) (*shadow, error) {
	d := serve.New(daemonConfig(s, p, dir))
	if err := putProgram(d, s); err != nil {
		return nil, err
	}
	c := newClient(d.Handler(), s, newShadow(s.keys))
	for _, o := range s.fixture {
		c.do(o)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("close fixture daemon: %w", err)
	}
	if c.failed > 0 {
		return nil, fmt.Errorf("fixture: %d failed ops, first: %s", c.failed, c.firstFail)
	}
	return c.sh, nil
}

// copyDir copies a durability tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// served is a daemon ready for the stream's first timed-phase op.
type served struct {
	d      *serve.Daemon
	cfg    serve.Config
	c      *client
	setups []float64 // seconds, one per fresh daemon
}

// setUp brings up s.setups fresh daemons, timing for each the work a
// user waits for before the first request can be served — PUT of the
// program (parse + full ground) on the read workloads, RecoverTenants
// (checkpoint load + WAL suffix replay + chain verification) over a copy of
// the fixture on the write workloads — and keeps the last one.
func setUp(ctx context.Context, s *stream, p profile, tmp string) (*served, error) {
	out := &served{}
	var sh *shadow
	fixture := filepath.Join(tmp, "fixture")
	if s.durable {
		var err error
		if sh, err = writeFixture(s, p, fixture); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.setups; i++ {
		if out.d != nil {
			if err := out.d.Close(); err != nil {
				return nil, err
			}
			out.d = nil
			runtime.GC() // the next set-up starts from the same heap as the first
		}
		dir := filepath.Join(tmp, fmt.Sprintf("data-%d", i))
		if s.durable {
			if err := copyDir(fixture, dir); err != nil {
				return nil, err
			}
		}
		out.cfg = daemonConfig(s, p, dir)
		d := serve.New(out.cfg)
		start := time.Now()
		if s.durable {
			names, err := d.RecoverTenants(ctx)
			if err != nil {
				return nil, err
			}
			if len(names) != 1 || names[0] != s.tenant {
				return nil, fmt.Errorf("recovered tenants %v, want [%s]", names, s.tenant)
			}
		} else if err := putProgram(d, s); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
		out.d = d
	}
	out.c = newClient(out.d.Handler(), s, sh)
	return out, nil
}

// roundStat is what one timed round measures.
type roundStat struct {
	opsPerS, p50, p90, cpuMs, heapMB float64
}

// timedRound runs one round and measures it. lat receives the per-op
// ServeHTTP times in milliseconds.
func timedRound(c *client, ops []op, lat []float64) roundStat {
	cpu0, start := cpuTime(), time.Now()
	for i, o := range ops {
		lat[i] = ms(c.do(o))
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	n := float64(len(ops))
	return roundStat{
		opsPerS: n / wall.Seconds(),
		p50:     percentile(lat, 0.50),
		p90:     percentile(lat, 0.90),
		cpuMs:   ms(cpu) / n,
		heapMB:  float64(mem.HeapAlloc) / (1 << 20),
	}
}

// classStat is one op class of the timed phase: its share of the ops and
// its median latency. Band numbers the latency band the class belongs to:
// classes adjacent in latency order whose medians are within sameBand of
// each other share a band, because no cliff separates them.
type classStat struct {
	Name     string  `json:"name"`
	Ops      int     `json:"ops"`
	Share    float64 `json:"share_pct"`
	MedianMs float64 `json:"median_ms"`
	Band     int     `json:"band"`
}

// cliff locates one percentile among the latency bands.
type cliff struct {
	Percentile float64 `json:"percentile"`
	Classes    string  `json:"classes"`      // the band's classes
	Distance   float64 `json:"distance_pct"` // to the nearest band edge
}

const (
	sameBand         = 1.25 // ratio of class medians below which two classes are one band
	minCliffDistance = 5.0  // percentile points
	maxDrift         = 0.15 // round 5 vs round 1
)

// classBands orders the op classes by median latency, groups them into
// bands and places p50 and p90 among the bands. A percentile within
// minCliffDistance of a band edge sits on the cliff between two latency
// classes, where a small shift in the mix moves it by the whole gap between
// them — the benchmark refuses to report such a number.
func classBands(names []string, class []uint8, lat []float64) ([]classStat, []cliff) {
	per := make([][]float64, len(names))
	for i, c := range class {
		per[c] = append(per[c], lat[i])
	}
	var stats []classStat
	for c, l := range per {
		if len(l) > 0 {
			stats = append(stats, classStat{Name: names[c], Ops: len(l),
				Share: 100 * float64(len(l)) / float64(len(lat)), MedianMs: median(l)})
		}
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].MedianMs < stats[j].MedianMs })
	type band struct {
		names  string
		lo, hi float64 // percentiles
	}
	var bands []band
	for i := range stats {
		if i > 0 && stats[i].MedianMs <= stats[i-1].MedianMs*sameBand {
			b := &bands[len(bands)-1]
			b.names, b.hi = b.names+"+"+stats[i].Name, b.hi+stats[i].Share
		} else {
			lo := 0.0
			if i > 0 {
				lo = bands[len(bands)-1].hi
			}
			bands = append(bands, band{stats[i].Name, lo, lo + stats[i].Share})
		}
		stats[i].Band = len(bands) - 1
	}
	var cliffs []cliff
	for _, pct := range []float64{50, 90} {
		for i, b := range bands {
			if pct >= b.hi && i < len(bands)-1 {
				continue
			}
			dist := 100.0 // the first and the last band have one edge
			if i > 0 {
				dist = pct - b.lo
			}
			if i < len(bands)-1 {
				dist = min(dist, b.hi-pct)
			}
			cliffs = append(cliffs, cliff{Percentile: pct, Classes: b.names, Distance: dist})
			break
		}
	}
	return stats, cliffs
}

// runServe is the end-to-end run: the stream through serve's handler with
// tracing off.
func runServe(ctx context.Context, rc runConfig) (*record, error) {
	s, err := newStream(rc.workload, rc.prof, rc.seed, rc.seconds)
	if err != nil {
		return nil, err
	}
	rec := newRecord(rc, s, false)
	tmp, err := os.MkdirTemp(rc.outDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	sv, err := setUp(ctx, s, rc.prof, tmp)
	if err != nil {
		return nil, err
	}
	defer sv.d.Close() // harmless after roundTrip's own Close
	c := sv.c
	for _, o := range s.warm {
		c.do(o)
	}
	if c.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d failed ops, first: %s", c.failed, c.firstFail)
	}

	var rounds []roundStat
	var class []uint8
	var lat []float64
	for _, ops := range s.rounds {
		l := make([]float64, len(ops))
		rounds = append(rounds, timedRound(c, ops, l))
		lat = append(lat, l...)
		for _, o := range ops {
			class = append(class, o.class)
		}
	}

	// Everything below is outside the timed phase.
	rec.addRounds(sv.setups, rounds)
	rec.Classes, rec.Cliffs = classBands(s.classes, class, lat)
	if s.durable {
		if err := roundTrip(ctx, sv.d, c, sv.cfg); err != nil {
			c.fail("durability round trip: %v", err)
		} else {
			rec.Checks = append(rec.Checks, "durability round trip: wal verify green, recovered version and -ok(X) identical")
		}
	} else {
		n, err := checkReads(ctx, c)
		if err != nil {
			return nil, err
		}
		rec.Checks = append(rec.Checks, fmt.Sprintf("%d distinct goals byte-identical to the non-goal-directed reference", n))
	}
	rec.Attempted, rec.Failed, rec.FirstFailure = len(lat), c.failed, c.firstFail
	rec.Correct = c.failed == 0
	rec.report(rc.log)
	return rec, nil
}

// guard enforces the benchmark's own validity conditions on an end-to-end
// record: no percentile on a cliff, and a live heap that does not drift.
// Both are properties of the op stream, not of the host. Latency drift
// between the first and the last round is reported but not enforced: on a
// shared host a noisy neighbour moves a whole round by more than any
// threshold that would still catch a drifting workload.
func (r *record) guard() error {
	for _, c := range r.Cliffs {
		if c.Distance < minCliffDistance {
			return fmt.Errorf("cliff guard: p%.0f is %.1f percentile points from the edge of band %q (need %.0f): resize the op mix",
				c.Percentile, c.Distance, c.Classes, minCliffDistance)
		}
	}
	if d := r.drift("heap_mb"); d > maxDrift || d < -maxDrift {
		return fmt.Errorf("stationarity guard: heap_mb changed by %+.1f%% from round 1 to the last round (limit %.0f%%): the workload is not stationary",
			100*d, 100*maxDrift)
	}
	return nil
}

// drift is the relative change of a metric from the first to the last
// round.
func (r *record) drift(metric string) float64 {
	v := r.Metrics[metric].Rounds
	return v[len(v)-1]/v[0] - 1
}
