// Package obs is the engine-wide observability layer: a lock-cheap metrics
// registry (atomic counters and gauges plus a synchronised wrapper over the
// power-of-two batch.Histogram) and structured trace events.
//
// Metric names are dotted paths; the segment before the first dot is the
// metric family (ground, eval, storage, stable, core). Dynamic label values
// — e.g. the reason an incremental update fell back to regrounding — are
// appended as one more segment ("core.update.fallback.compound-args"), so
// an export stays a flat expvar-style JSON object.
//
// Hot paths do not look metrics up by name: each instrumented package
// resolves its counters once into package-level vars and accumulates
// locally, flushing one atomic add per counter at the end of an operation
// (a fixpoint run, a grounding pass, a join). The registry itself is safe
// for concurrent use; a counter add is a single atomic instruction.
//
// The package-wide Enabled flag (default on) lets a deployment shed even
// the batched atomic adds: instrumented call sites gate their flush on
// On(), which is one atomic load. Counters are process-global — snapshots
// taken with Registry.Snap and compared with Snap.Diff give per-operation
// deltas, which is how the differential counter-consistency tests and the
// churn footprint test use them.
package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
)

// enabled is the package-wide metrics switch (default on). It gates the
// batched flushes at instrumented call sites, not the registry itself:
// direct Counter.Add calls always count.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled flips the package-wide metrics switch.
func SetEnabled(on bool) { enabled.Store(on) }

// On reports whether metrics collection is enabled. One atomic load; hot
// paths call it once per operation, not per event.
func On() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic last-value metric.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Hist is a mutex-synchronised wrapper over batch.Histogram, for latency
// metrics shared across goroutines (the raw histogram is per-worker by
// design and unsynchronised).
type Hist struct {
	mu sync.Mutex
	h  batch.Histogram
}

// Observe records one latency.
func (h *Hist) Observe(d time.Duration) {
	h.mu.Lock()
	h.h.Observe(d)
	h.mu.Unlock()
}

// Summary returns a copy of the underlying histogram, safe to read without
// further synchronisation.
func (h *Hist) Summary() batch.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// Registry is a named collection of metrics. Metric accessors get-or-create
// under an RWMutex; instrumented packages resolve their metrics once at init
// so steady-state operation never touches the maps.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// defaultRegistry is the process-global registry every engine layer
// publishes into.
var defaultRegistry = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Hist {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Hist{}
	r.hists[name] = h
	return h
}

// SanitizeSegment makes an arbitrary string — a tenant name, a file path —
// safe to splice into a dotted metric path as one segment: every byte
// outside [A-Za-z0-9_-] becomes '_' and the empty string becomes "_", so
// caller-controlled names can never add dots (which would shift the family
// prefix) or break the flat JSON export. The mapping is not injective;
// callers that need exact names keep them out of metric paths.
func SanitizeSegment(s string) string {
	if s == "" {
		return "_"
	}
	clean := true
	for i := 0; i < len(s); i++ {
		if !segmentByteOK(s[i]) {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if !segmentByteOK(c) {
			b[i] = '_'
		}
	}
	return string(b)
}

func segmentByteOK(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
}

// Snap is a point-in-time reading of every integer-valued metric: counters
// and gauges under their own names, histograms contributing
// "<name>.count". Snapshots are plain maps — diff them, marshal them, or
// index them directly.
type Snap map[string]int64

// Snap captures the current value of every registered metric.
func (r *Registry) Snap() Snap {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := make(Snap, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		s[name] = c.Value()
	}
	for name, g := range r.gauges {
		s[name] = g.Value()
	}
	for name, h := range r.hists {
		sum := h.Summary()
		s[name+".count"] = sum.Count()
	}
	return s
}

// Diff returns s - prev per key: the counter deltas accumulated between the
// two snapshots. Keys absent from prev count from zero; zero deltas are
// dropped (gauges that did not move disappear from the diff).
func (s Snap) Diff(prev Snap) Snap {
	out := make(Snap)
	for k, v := range s {
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// histJSON is the JSON shape of one histogram in the export.
type histJSON struct {
	Count  int64 `json:"count"`
	MinNs  int64 `json:"min_ns"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MaxNs  int64 `json:"max_ns"`
}

// WriteJSON writes the registry as one flat, expvar-style JSON object:
// counters and gauges as numbers, histograms as {count, min_ns, mean_ns,
// p50_ns, p99_ns, max_ns} objects. Keys are sorted, so the export is
// deterministic for a fixed state.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.RLock()
	flat := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		flat[name] = c.Value()
	}
	for name, g := range r.gauges {
		flat[name] = g.Value()
	}
	for name, h := range r.hists {
		sum := h.Summary()
		flat[name] = histJSON{
			Count:  sum.Count(),
			MinNs:  sum.Min().Nanoseconds(),
			MeanNs: sum.Mean().Nanoseconds(),
			P50Ns:  sum.Quantile(0.5).Nanoseconds(),
			P99Ns:  sum.Quantile(0.99).Nanoseconds(),
			MaxNs:  sum.Max().Nanoseconds(),
		}
	}
	r.mu.RUnlock()

	keys := make([]string, 0, len(flat))
	for k := range flat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, k := range keys {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		} else if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return err
		}
		vb, err := json.Marshal(flat[k])
		if err != nil {
			return err
		}
		if _, err := w.Write(append(append(kb, ": "...), vb...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

// Handler returns an http.Handler serving the registry as JSON — the
// /debug/metrics endpoint of cmd/ordlog -metrics-addr.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
}
