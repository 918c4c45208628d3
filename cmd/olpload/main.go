// Command olpload is the load generator for ordlogd: it creates N synthetic
// tenants over the wire, then drives a mixed read/write workload with
// Zipf-skewed tenant and goal popularity, in closed loop (a fixed number of
// connections, each issuing the next request when the previous returns) or
// open loop (-rate, requests launched on a fixed schedule regardless of
// completions — the latency then includes queueing delay, which is what a
// user behind a saturated server actually sees).
//
// Usage:
//
//	olpload [flags]
//
//	-addr url          daemon base URL (default http://localhost:4040)
//	-duration d        measurement window (default 5s)
//	-conns n           closed-loop connections (default 8)
//	-rate r            open-loop target ops/sec (0 = closed loop)
//	-write-ratio f     fraction of ops that are writes (default 0.1)
//	-tenants n         synthetic tenants to create (default 4)
//	-tenant-skew s     Zipf skew across tenants (0 = uniform, default 0.99)
//	-goal-skew s       Zipf skew across query goals (default 0.99)
//	-chain n           constants in each tenant's path chain (default 24)
//	-churn             write ops toggle facts in a bounded key window
//	                   (assert when absent, retract when present) instead
//	                   of asserting globally fresh facts — the sustained
//	                   assert/retract workload of experiment B14,
//	                   driven over the wire against a live daemon
//	-churn-keys n      size of the per-tenant churned key window, picked
//	                   Zipf-skewed so hot keys flap constantly (default 256)
//	-op-timeout d      per-request ?timeout= and client budget (default 2s)
//	-connect-wait d    how long to retry /healthz before giving up (default 10s)
//	-seed n            RNG seed (default 1)
//	-label s           run label recorded in the output
//	-out file          append the run record to this JSON file's "runs" array
//	                   (created if missing); the record always goes to stdout
//
// Latencies come from internal/batch power-of-two histograms (p50/p99/max),
// reads and writes tracked separately. 206 partial responses count as
// successes but are tallied as truncated; 429 admission rejections are
// tallied as rejected; anything else non-2xx is an error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/workload"
)

type opts struct {
	addr        string
	duration    time.Duration
	conns       int
	rate        float64
	writeRatio  float64
	tenants     int
	tenantSkew  float64
	goalSkew    float64
	chain       int
	churn       bool
	churnKeys   int
	opTimeout   time.Duration
	connectWait time.Duration
	seed        int64
	label       string
	out         string
}

// tally is one worker's private slice of the run statistics, merged after
// the window closes so the hot path never contends on a shared lock.
type tally struct {
	read, write         batch.Histogram
	reads, writes       int64
	truncated, rejected int64
	errors              int64
}

func (t *tally) merge(o *tally) {
	t.read.Merge(&o.read)
	t.write.Merge(&o.write)
	t.reads += o.reads
	t.writes += o.writes
	t.truncated += o.truncated
	t.rejected += o.rejected
	t.errors += o.errors
}

func main() {
	var o opts
	flag.StringVar(&o.addr, "addr", "http://localhost:4040", "daemon base URL")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "measurement window")
	flag.IntVar(&o.conns, "conns", 8, "closed-loop connections")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop target ops/sec (0 = closed loop)")
	flag.Float64Var(&o.writeRatio, "write-ratio", 0.1, "fraction of ops that are writes")
	flag.IntVar(&o.tenants, "tenants", 4, "synthetic tenants to create")
	flag.Float64Var(&o.tenantSkew, "tenant-skew", 0.99, "Zipf skew across tenants (0 = uniform)")
	flag.Float64Var(&o.goalSkew, "goal-skew", 0.99, "Zipf skew across query goals")
	flag.IntVar(&o.chain, "chain", 24, "constants in each tenant's path chain")
	flag.BoolVar(&o.churn, "churn", false, "write ops toggle a bounded key window (assert/retract churn)")
	flag.IntVar(&o.churnKeys, "churn-keys", 256, "per-tenant churned key window for -churn")
	flag.DurationVar(&o.opTimeout, "op-timeout", 2*time.Second, "per-request deadline")
	flag.DurationVar(&o.connectWait, "connect-wait", 10*time.Second, "how long to retry /healthz")
	flag.Int64Var(&o.seed, "seed", 1, "RNG seed")
	flag.StringVar(&o.label, "label", "", "run label recorded in the output")
	flag.StringVar(&o.out, "out", "", "append the run record to this JSON file")
	flag.Parse()
	if o.tenants <= 0 || o.conns <= 0 || o.chain < 2 || o.writeRatio < 0 || o.writeRatio > 1 {
		fmt.Fprintln(os.Stderr, "olpload: bad flags (need tenants/conns > 0, chain >= 2, write-ratio in [0,1])")
		os.Exit(2)
	}
	if o.churn && o.churnKeys <= 0 {
		fmt.Fprintln(os.Stderr, "olpload: -churn needs -churn-keys > 0")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "olpload:", err)
		os.Exit(1)
	}
}

func run(o opts) error {
	client := &http.Client{Timeout: o.opTimeout + 2*time.Second}
	if err := waitHealthy(client, o.addr, o.connectWait); err != nil {
		return err
	}
	if err := createTenants(client, o); err != nil {
		return err
	}

	var (
		writeSeq atomic.Int64 // globally fresh write facts, so every write bumps a version
		wg       sync.WaitGroup
		tallies  = make([]*tally, o.conns)
		churn    *churnState
	)
	if o.churn {
		churn = newChurnState(o.tenants, o.churnKeys)
	}
	deadline := time.Now().Add(o.duration)
	start := time.Now()

	if o.rate > 0 {
		// Open loop: one scheduler paces the launch instants; the worker
		// slot is picked round-robin only to give each in-flight op a
		// private RNG and tally. Latency runs from the scheduled instant,
		// so queueing behind a saturated daemon is included.
		interval := time.Duration(float64(time.Second) / o.rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		for i := range tallies {
			tallies[i] = &tally{}
		}
		var mu sync.Mutex // serializes tally access across launched ops per slot
		tick := time.NewTicker(interval)
		defer tick.Stop()
		slot := 0
		for now := range tick.C {
			if now.After(deadline) {
				break
			}
			seq := int64(slot)
			s := slot % o.conns
			slot++
			wg.Add(1)
			go func(s int, seq int64, scheduled time.Time) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(openLoopSeed(o.seed, s, seq)))
				t := &tally{}
				oneOp(client, o, rng, &writeSeq, churn, t, scheduled)
				mu.Lock()
				tallies[s].merge(t)
				mu.Unlock()
			}(s, seq, now)
		}
	} else {
		// Closed loop: each connection issues its next request as soon as
		// the previous one completes.
		for c := 0; c < o.conns; c++ {
			t := &tally{}
			tallies[c] = t
			wg.Add(1)
			go func(c int, t *tally) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(o.seed + int64(c)))
				for time.Now().Before(deadline) {
					oneOp(client, o, rng, &writeSeq, churn, t, time.Now())
				}
			}(c, t)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := &tally{}
	for _, t := range tallies {
		total.merge(t)
	}
	rec := record(o, total, elapsed)
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if o.out != "" {
		if err := appendRun(o.out, rec); err != nil {
			return fmt.Errorf("-out %s: %v", o.out, err)
		}
	}
	return nil
}

func waitHealthy(client *http.Client, addr string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy after %s: %v", addr, wait, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// tenantProgram builds the synthetic tenant: a chain of -chain constants
// under transitive closure, plus a mark predicate that writes grow. The
// heaviest goal path(c0, X) touches the whole chain, and the Zipf goal pick
// favours it — popular goals are also the expensive ones.
func tenantProgram(chain int) string {
	var sb strings.Builder
	sb.WriteString("module main {\n")
	sb.WriteString("  path(X,Y) :- edge(X,Y).\n")
	sb.WriteString("  path(X,Z) :- edge(X,Y), path(Y,Z).\n")
	sb.WriteString("  marked(X) :- mark(X).\n")
	sb.WriteString("  mark(w0).\n")
	for i := 0; i+1 < chain; i++ {
		fmt.Fprintf(&sb, "  edge(c%d,c%d).\n", i, i+1)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func tenantName(i int) string { return fmt.Sprintf("lt%d", i) }

func createTenants(client *http.Client, o opts) error {
	src := tenantProgram(o.chain)
	for i := 0; i < o.tenants; i++ {
		req, err := http.NewRequest(http.MethodPut, o.addr+"/v1/tenants/"+tenantName(i), strings.NewReader(src))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "text/plain")
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("create %s: %v", tenantName(i), err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("create %s: %d %s", tenantName(i), resp.StatusCode, body)
		}
	}
	fmt.Fprintf(os.Stderr, "olpload: created %d tenants (chain %d)\n", o.tenants, o.chain)
	return nil
}

// openLoopSeed derives the RNG seed for one scheduled open-loop op as a
// pure function of -seed, the worker slot, and the tick index — never the
// wall clock — so two runs with the same flags issue identical request
// streams (modulo the write sequence numbers, which are globally fresh by
// design).
func openLoopSeed(seed int64, slot int, seq int64) int64 {
	return seed + int64(slot)*7919 + seq*104729
}

// churnState holds the per-(tenant, key) toggle counters for -churn. An
// atomic fetch-add decides each write's direction — odd count asserts,
// even retracts — so concurrent workers alternate per key without
// coordination. Two racing workers can retract an absent fact; the
// daemon treats that as a no-op write, which is fine for load.
type churnState struct {
	keys    int
	toggles []atomic.Int64
}

func newChurnState(tenants, keys int) *churnState {
	return &churnState{keys: keys, toggles: make([]atomic.Int64, tenants*keys)}
}

// direction picks assert vs retract for one write against (tenant, key).
func (c *churnState) direction(tenant, key int) (retract bool) {
	return c.toggles[tenant*c.keys+key].Add(1)%2 == 0
}

// opKind is the deterministic part of one generated operation: which
// tenant, write or read, and (for reads) which goal or (for -churn
// writes) which key. Everything the RNG decides lives here so
// determinism is testable without a daemon.
type opKind struct {
	tenant    string
	tenantIdx int
	write     bool
	goal      string
	churnKey  int
}

// nextOp draws one operation from the RNG: tenant picked by Zipf, then a
// write or a read with the goal picked by Zipf (heaviest goal most
// popular). Under -churn, writes also draw their target key Zipf-skewed
// over the bounded window, so the hottest keys flap the fastest.
func nextOp(rng *rand.Rand, o opts) opKind {
	tz := workload.NewZipf(rng, o.tenantSkew, o.tenants)
	gz := workload.NewZipf(rng, o.goalSkew, o.chain-1)
	ti := tz.Next()
	k := opKind{tenant: tenantName(ti), tenantIdx: ti}
	if rng.Float64() < o.writeRatio {
		k.write = true
		if o.churn {
			kz := workload.NewZipf(rng, o.goalSkew, o.churnKeys)
			k.churnKey = kz.Next()
		}
		return k
	}
	k.goal = fmt.Sprintf("path(c%d,X)", gz.Next())
	return k
}

// oneOp issues one operation drawn from the RNG (see nextOp). Latency is
// measured from `scheduled`. Under -churn, writes toggle their drawn key
// between assert and retract; otherwise each write asserts a globally
// fresh fact.
func oneOp(client *http.Client, o opts, rng *rand.Rand, writeSeq *atomic.Int64, churn *churnState, t *tally, scheduled time.Time) {
	k := nextOp(rng, o)
	var (
		resp *http.Response
		err  error
		hist *batch.Histogram
	)
	if k.write {
		hist = &t.write
		t.writes++
		verb := "update"
		fact := fmt.Sprintf(`{"component":"main","facts":"mark(w%d)."}`, writeSeq.Add(1))
		if churn != nil {
			fact = fmt.Sprintf(`{"component":"main","facts":"mark(k%d)."}`, k.churnKey)
			if churn.direction(k.tenantIdx, k.churnKey) {
				verb = "retract"
			}
		}
		resp, err = client.Post(
			o.addr+"/v1/tenants/"+k.tenant+"/"+verb+"?timeout="+o.opTimeout.String(),
			"application/json", bytes.NewReader([]byte(fact)))
	} else {
		hist = &t.read
		t.reads++
		resp, err = client.Get(
			o.addr + "/v1/tenants/" + k.tenant + "/query?q=" + k.goal + "&timeout=" + o.opTimeout.String())
	}
	lat := time.Since(scheduled)
	if err != nil {
		t.errors++
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusPartialContent:
		t.truncated++
	case resp.StatusCode == http.StatusTooManyRequests:
		t.rejected++
		return // a rejected op has no service latency worth recording
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		t.errors++
		return
	}
	hist.Observe(lat)
}

type latJSON struct {
	Count  int64   `json:"count"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
	MeanUs float64 `json:"mean_us"`
}

func latencies(h *batch.Histogram) latJSON {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return latJSON{
		Count:  h.Count(),
		P50us:  us(h.Quantile(0.5)),
		P99us:  us(h.Quantile(0.99)),
		MaxUs:  us(h.Max()),
		MeanUs: us(h.Mean()),
	}
}

func record(o opts, t *tally, elapsed time.Duration) map[string]any {
	ops := t.reads + t.writes
	mode := "closed"
	if o.rate > 0 {
		mode = "open"
	}
	return map[string]any{
		"label":       o.label,
		"mode":        mode,
		"tenants":     o.tenants,
		"conns":       o.conns,
		"rate":        o.rate,
		"duration_s":  elapsed.Seconds(),
		"write_ratio": o.writeRatio,
		"tenant_skew": o.tenantSkew,
		"goal_skew":   o.goalSkew,
		"chain":       o.chain,
		"churn":       o.churn,
		"churn_keys":  o.churnKeys,
		"seed":        o.seed,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"ops":         ops,
		"ops_per_sec": float64(ops) / elapsed.Seconds(),
		"errors":      t.errors,
		"truncated":   t.truncated,
		"rejected":    t.rejected,
		"read":        latencies(&t.read),
		"write":       latencies(&t.write),
	}
}

// appendRun appends rec to the "runs" array of the JSON object in path,
// creating the file (and the array) if needed. Other top-level fields of an
// existing file are preserved, so a hand-written header survives appends.
func appendRun(path string, rec map[string]any) error {
	doc := map[string]any{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &doc); err != nil {
			return fmt.Errorf("existing file is not a JSON object: %v", err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	runs, _ := doc["runs"].([]any)
	doc["runs"] = append(runs, rec)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
