package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/interrupt"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/stable"
	"repro/internal/wal"
)

// Config configures a Daemon. The zero value serves: unbounded admission,
// 8 retained versions, no default deadline, 30s deadline cap, 8 MiB bodies
// and a zero-value engine config for every tenant.
type Config struct {
	// InFlight bounds the concurrently admitted requests per tenant
	// (query/prove/stable/update/retract); excess requests queue until
	// their own deadline and are rejected with 429. <= 0 = unbounded.
	InFlight int

	// Retain is the number of snapshot versions kept pinnable per tenant
	// (<= 0 = 8). The current version is always pinnable.
	Retain int

	// DefaultTimeout is applied to requests that carry no ?timeout=
	// (0 = none: the request runs until the client disconnects).
	DefaultTimeout time.Duration

	// MaxTimeout caps ?timeout= (0 = 30s). A larger request value is
	// clamped, not rejected — the response still honours the contract.
	MaxTimeout time.Duration

	// MaxBodyBytes bounds program and fact uploads (0 = 8 MiB).
	MaxBodyBytes int64

	// Engine is the construction config for every tenant's engine
	// (workers, enumeration budget, grounding options).
	Engine core.Config

	// DataDir, when non-empty, makes every tenant durable: each gets a
	// write-ahead log under DataDir/<sanitized-name> (obs.SanitizeSegment,
	// so arbitrary tenant names cannot escape the tree), loads reset the
	// tenant's history, drops delete its directory, and RecoverTenants
	// restores every surviving tenant at boot. Empty = memory-only.
	DataDir string

	// CheckpointEvery is the per-tenant WAL checkpoint cadence when
	// DataDir is set (<= 0 = core.DefaultCheckpointEvery).
	CheckpointEvery int

	// Sync is the per-tenant WAL fsync policy when DataDir is set.
	Sync wal.SyncPolicy

	// RotateRecords / RotateBytes are the per-tenant WAL segment rotation
	// caps when DataDir is set (see core.Durability); 0/0 keeps each
	// tenant's log in the legacy single file.
	RotateRecords int
	RotateBytes   int64

	// KeepCheckpoints bounds each tenant's on-disk footprint when DataDir
	// is set: only the newest KeepCheckpoints checkpoints survive each
	// checkpoint write, and log segments they cover are pruned. 0 keeps
	// everything.
	KeepCheckpoints int
}

// Daemon is the multi-tenant serving state behind the HTTP handler. One
// Daemon hosts many named engines; all handler state lives in the tenant
// registry, so the handler itself is stateless and safe for concurrent use.
type Daemon struct {
	cfg Config
	reg *core.Registry
}

// New returns a Daemon with the given configuration.
func New(cfg Config) *Daemon {
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	return &Daemon{cfg: cfg, reg: core.NewRegistry(cfg.InFlight, cfg.Retain)}
}

// Registry exposes the tenant registry (for preloading tenants at startup
// and for tests).
func (d *Daemon) Registry() *core.Registry { return d.reg }

// TenantConfig returns the engine construction config for one named
// tenant: the daemon-wide Config.Engine, plus per-tenant durability under
// DataDir when persistence is on. Startup preloading uses it so -load
// tenants get the same WAL wiring as tenants loaded over the wire.
func (d *Daemon) TenantConfig(name string) core.Config {
	cfg := d.cfg.Engine
	if d.cfg.DataDir == "" {
		return cfg
	}
	every := d.cfg.CheckpointEvery
	if every <= 0 {
		every = core.DefaultCheckpointEvery
	}
	cfg.Durability = core.Durability{
		Dir:             d.tenantDir(name),
		Name:            name,
		CheckpointEvery: every,
		Sync:            d.cfg.Sync,
		RotateRecords:   d.cfg.RotateRecords,
		RotateBytes:     d.cfg.RotateBytes,
		KeepCheckpoints: d.cfg.KeepCheckpoints,
	}
	return cfg
}

// tenantDir maps a tenant name to its durability directory.
func (d *Daemon) tenantDir(name string) string {
	return filepath.Join(d.cfg.DataDir, obs.SanitizeSegment(name))
}

// RecoverTenants scans DataDir and rebuilds every tenant with WAL state
// (core.Recover: checkpoint + suffix replay + chain verification),
// publishing each under its recorded name. It returns the recovered
// names, sorted by the directory scan. A daemon without DataDir recovers
// nothing. Recovery is all-or-nothing per call: the first corrupt tenant
// aborts with its error so an operator never silently serves a partial
// fleet.
func (d *Daemon) RecoverTenants(ctx context.Context) ([]string, error) {
	if d.cfg.DataDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(d.cfg.DataDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(d.cfg.DataDir, e.Name())
		if !wal.IsDurabilityDir(dir) {
			continue
		}
		eng, err := core.Recover(ctx, dir, d.cfg.Engine,
			core.WithCheckpointEvery(d.cfg.CheckpointEvery), core.WithSync(d.cfg.Sync),
			core.WithRotateRecords(d.cfg.RotateRecords), core.WithRotateBytes(d.cfg.RotateBytes),
			core.WithKeepCheckpoints(d.cfg.KeepCheckpoints))
		if err != nil {
			return names, fmt.Errorf("recover tenant dir %s: %w", dir, err)
		}
		name := eng.DurableName()
		if _, _, err := d.reg.Attach(name, eng); err != nil {
			_ = eng.Close()
			return names, fmt.Errorf("recover tenant dir %s: %w", dir, err)
		}
		names = append(names, name)
	}
	mTenants.Set(int64(d.reg.Len()))
	return names, nil
}

// Close flushes and closes every tenant's write-ahead log; the daemon
// calls it after the HTTP drain so interval-sync appends reach disk
// before exit.
func (d *Daemon) Close() error { return d.reg.Close() }

// Handler returns the daemon's HTTP handler: the /v1 tenant API, /healthz,
// and /debug/metrics (the process-global obs registry as flat JSON).
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.Handle("GET /debug/metrics", obs.Default().Handler())
	mux.HandleFunc("GET /v1/tenants", d.instrument("list", d.handleList))
	mux.HandleFunc("PUT /v1/tenants/{tenant}", d.instrument("load", d.handleLoad))
	mux.HandleFunc("GET /v1/tenants/{tenant}", d.instrument("info", d.handleInfo))
	mux.HandleFunc("DELETE /v1/tenants/{tenant}", d.instrument("drop", d.handleDrop))
	mux.HandleFunc("POST /v1/tenants/{tenant}/update", d.instrument("update", d.handleUpdate))
	mux.HandleFunc("POST /v1/tenants/{tenant}/retract", d.instrument("retract", d.handleRetract))
	mux.HandleFunc("GET /v1/tenants/{tenant}/query", d.instrument("query", d.handleQuery))
	mux.HandleFunc("GET /v1/tenants/{tenant}/prove", d.instrument("prove", d.handleProve))
	mux.HandleFunc("GET /v1/tenants/{tenant}/stable", d.instrument("stable", d.handleStable))
	return mux
}

// instrument wraps a handler with the serve.* request accounting: total
// requests, per-op counts and the latency histogram.
func (d *Daemon) instrument(op string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		mRequests.Inc()
		opCounter(op).Inc()
		h(w, r)
		hLatency.Observe(time.Since(start))
	}
}

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func failf(w http.ResponseWriter, code int, format string, args ...any) {
	mErrors.Inc()
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// reqCtx derives the request's evaluation context from ?timeout=, clamped
// to MaxTimeout, falling back to the daemon default. The base is the
// request context, so a client disconnect cancels evaluation either way.
// params is the request's query string, parsed once by the handler.
func (d *Daemon) reqCtx(r *http.Request, params url.Values) (context.Context, context.CancelFunc, error) {
	timeout := d.cfg.DefaultTimeout
	if s := params.Get("timeout"); s != "" {
		dur, err := time.ParseDuration(s)
		if err != nil {
			return nil, nil, fmt.Errorf("bad timeout %q: %v", s, err)
		}
		if dur <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q: must be positive", s)
		}
		timeout = dur
	}
	if timeout > d.cfg.MaxTimeout {
		timeout = d.cfg.MaxTimeout
	}
	if timeout <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, nil
}

// tenant resolves the {tenant} path segment, failing the request with 404.
func (d *Daemon) tenant(w http.ResponseWriter, r *http.Request) (*core.Tenant, bool) {
	name := r.PathValue("tenant")
	t, ok := d.reg.Get(name)
	if !ok {
		failf(w, http.StatusNotFound, "unknown tenant %q", name)
		return nil, false
	}
	return t, true
}

// admit acquires the tenant's admission slot under ctx. On failure it
// writes the 429 rejection and reports false; the caller must return.
func admit(ctx context.Context, w http.ResponseWriter, t *core.Tenant) (release func(), ok bool) {
	release, err := t.Acquire(ctx)
	if err != nil {
		mRejected.Inc()
		mErrors.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorJSON{
			Error: fmt.Sprintf("tenant %q admission queue full: %v", t.Name(), err)})
		return nil, false
	}
	return release, true
}

// pin resolves the snapshot a read runs against. ?version= re-reads a
// retained version; ?as_of= time-travels through Tenant.AsOf, which falls
// past the retention ring into the engine's update history and — on a
// durable tenant — the WAL on disk. At most one of the two may be given;
// absent both, reads see the current tip. Version sentinels map
// uniformly for both parameters: ErrVersionEvicted → 410 Gone,
// ErrVersionUnknown → 404 Not Found.
//
// Handlers pin before admission, so a malformed or unresolvable pin
// answers its own status even when the tenant is saturated. Only an
// ?as_of= version the retention ring no longer holds is left open: pin
// returns a nil snapshot, and the handler reconstructs it with
// reconstruct once admitted.
func pin(w http.ResponseWriter, params url.Values, t *core.Tenant) (snap *core.Snapshot, asOf uint64, ok bool) {
	vs := params.Get("version")
	as := params.Get("as_of")
	if vs != "" && as != "" {
		failf(w, http.StatusBadRequest, "at most one of ?version= and ?as_of=")
		return nil, 0, false
	}
	param, s := "version", vs
	if as != "" {
		param, s = "as_of", as
	}
	if s == "" {
		return t.Current(), 0, true
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		failf(w, http.StatusBadRequest, "bad %s %q: %v", param, s, err)
		return nil, 0, false
	}
	snap, err = t.At(v)
	if err != nil {
		if param == "as_of" && errors.Is(err, core.ErrVersionEvicted) {
			return nil, v, true
		}
		failf(w, versionStatus(err), "%v", err)
		return nil, 0, false
	}
	return snap, 0, true
}

// reconstruct finishes a pin: it returns snap when pin resolved one, and
// otherwise rebuilds version v through Tenant.AsOf. A reconstruction
// costs a grounding, so handlers call this after admission, under the
// request's context; an interrupted one answers 503.
func reconstruct(ctx context.Context, w http.ResponseWriter, t *core.Tenant, snap *core.Snapshot, v uint64) (*core.Snapshot, bool) {
	if snap != nil {
		return snap, true
	}
	snap, err := t.AsOf(ctx, v)
	if err != nil {
		failf(w, versionStatus(err), "%v", err)
		return nil, false
	}
	return snap, true
}

// versionStatus maps the core version sentinels to their wire statuses:
// the one place the ad-hoc per-handler mapping used to live.
func versionStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrVersionEvicted):
		return http.StatusGone
	case errors.Is(err, core.ErrVersionUnknown):
		return http.StatusNotFound
	case errors.Is(err, interrupt.ErrInterrupted):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// truncation marks a partial response: 206, the Ordlog-Truncated header
// and the body's "truncated" field (set by the caller) carry the marker.
func markTruncated(w http.ResponseWriter) {
	mTruncated.Inc()
	w.Header().Set("Ordlog-Truncated", "true")
}

func setVersion(w http.ResponseWriter, v uint64) {
	w.Header().Set("Ordlog-Version", strconv.FormatUint(v, 10))
}

// partialErr reports whether err is the graceful-degradation kind — the
// engine returned whatever it had alongside the error.
func partialErr(err error) bool {
	return errors.Is(err, interrupt.ErrInterrupted) || errors.Is(err, stable.ErrBudget)
}

// --- tenant lifecycle -----------------------------------------------------

type tenantInfoJSON struct {
	Name       string   `json:"name"`
	Version    uint64   `json:"version"`
	Rules      int      `json:"rules"`
	Atoms      int      `json:"atoms"`
	Components []string `json:"components"`
	Retained   []uint64 `json:"retained"`
	InFlight   int      `json:"in_flight"`
}

func tenantInfo(t *core.Tenant) tenantInfoJSON {
	snap := t.Current()
	src := t.Engine().Source()
	comps := make([]string, len(src.Components))
	for i, c := range src.Components {
		comps[i] = c.Name
	}
	return tenantInfoJSON{
		Name:       t.Name(),
		Version:    snap.Version(),
		Rules:      snap.NumGroundRules(),
		Atoms:      snap.NumAtoms(),
		Components: comps,
		Retained:   t.Versions(),
		InFlight:   t.InFlight(),
	}
}

func (d *Daemon) handleList(w http.ResponseWriter, _ *http.Request) {
	names := d.reg.Names()
	out := struct {
		Tenants []tenantInfoJSON `json:"tenants"`
	}{Tenants: make([]tenantInfoJSON, 0, len(names))}
	for _, n := range names {
		if t, ok := d.reg.Get(n); ok {
			out.Tenants = append(out.Tenants, tenantInfo(t))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (d *Daemon) handleInfo(w http.ResponseWriter, r *http.Request) {
	t, ok := d.tenant(w, r)
	if !ok {
		return
	}
	setVersion(w, t.Current().Version())
	writeJSON(w, http.StatusOK, tenantInfo(t))
}

func (d *Daemon) handleLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, d.cfg.MaxBodyBytes))
	if err != nil {
		failf(w, http.StatusRequestEntityTooLarge, "read program: %v", err)
		return
	}
	src := string(body)
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		var req struct {
			Program string `json:"program"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			failf(w, http.StatusBadRequest, "bad JSON body: %v", err)
			return
		}
		src = req.Program
	}
	// Queries embedded in the source (testdata files carry them) are
	// ignored: the daemon's query surface is the wire API.
	res, err := parser.Parse(src)
	if err != nil {
		failf(w, http.StatusBadRequest, "parse program: %v", err)
		return
	}
	ctx, cancel, err := d.reqCtx(r, r.URL.Query())
	if err != nil {
		failf(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	t, replaced, err := d.reg.Put(ctx, name, res.Program, d.TenantConfig(name))
	if err != nil {
		code := http.StatusBadRequest
		if interrupt.IsInterrupted(err) {
			code = http.StatusServiceUnavailable
		}
		failf(w, code, "ground program: %v", err)
		return
	}
	mTenants.Set(int64(d.reg.Len()))
	tenantCounter(name, "loads").Inc()
	code := http.StatusCreated
	if replaced {
		code = http.StatusOK
	}
	setVersion(w, t.Current().Version())
	writeJSON(w, code, tenantInfo(t))
}

func (d *Daemon) handleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !d.reg.Drop(name) {
		failf(w, http.StatusNotFound, "unknown tenant %q", name)
		return
	}
	if d.cfg.DataDir != "" {
		// Drop means gone: without this, the next boot would resurrect the
		// tenant from its WAL directory.
		if err := os.RemoveAll(d.tenantDir(name)); err != nil {
			failf(w, http.StatusInternalServerError, "tenant %q dropped but data dir not removed: %v", name, err)
			return
		}
	}
	mTenants.Set(int64(d.reg.Len()))
	w.WriteHeader(http.StatusNoContent)
}

// --- writes ---------------------------------------------------------------

type writeReqJSON struct {
	Component string `json:"component"`
	Facts     string `json:"facts"`
}

type writeRespJSON struct {
	Tenant    string `json:"tenant"`
	Component string `json:"component"`
	Version   uint64 `json:"version"`
	Facts     int    `json:"facts"`
}

func (d *Daemon) handleUpdate(w http.ResponseWriter, r *http.Request)  { d.handleWrite(w, r, false) }
func (d *Daemon) handleRetract(w http.ResponseWriter, r *http.Request) { d.handleWrite(w, r, true) }

func (d *Daemon) handleWrite(w http.ResponseWriter, r *http.Request, retract bool) {
	t, ok := d.tenant(w, r)
	if !ok {
		return
	}
	var req writeReqJSON
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, d.cfg.MaxBodyBytes))
	if err != nil {
		failf(w, http.StatusRequestEntityTooLarge, "read body: %v", err)
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		failf(w, http.StatusBadRequest, "bad JSON body: %v", err)
		return
	}
	facts, err := parser.ParseFacts(req.Facts)
	if err != nil {
		failf(w, http.StatusBadRequest, "parse facts: %v", err)
		return
	}
	ctx, cancel, err := d.reqCtx(r, r.URL.Query())
	if err != nil {
		failf(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	release, ok := admit(ctx, w, t)
	if !ok {
		return
	}
	defer release()
	op := t.Update
	if retract {
		op = t.Retract
	}
	snap, err := op(ctx, req.Component, facts)
	if err != nil {
		// Writes are atomic snapshot bumps: there is no partial write, so
		// an interrupted one reports unavailability, not truncation.
		code := http.StatusBadRequest
		if interrupt.IsInterrupted(err) {
			code = http.StatusServiceUnavailable
		}
		failf(w, code, "%v", err)
		return
	}
	tenantCounter(t.Name(), "writes").Inc()
	setVersion(w, snap.Version())
	writeJSON(w, http.StatusOK, writeRespJSON{
		Tenant: t.Name(), Component: req.Component,
		Version: snap.Version(), Facts: len(facts),
	})
}

// --- reads ----------------------------------------------------------------

// queryHeadJSON is a query response without its answers: writeQueryResp
// appends those as the object's last member, "answers".
type queryHeadJSON struct {
	Tenant    string `json:"tenant"`
	Component string `json:"component"`
	Version   uint64 `json:"version"`
	Query     string `json:"query"`
	Truncated bool   `json:"truncated"`
}

// writeQueryResp writes a query response: the head through encoding/json,
// the answer rows through core's row encoder straight into the same
// buffer — no map per row and no reflection over the rows, the bulk of a
// response. The bytes are those writeJSON would produce for the head with
// an "answers" array of name->term objects after it.
func writeQueryResp(w http.ResponseWriter, code int, head queryHeadJSON, answers *core.Answers) {
	buf, _ := json.MarshalIndent(head, "", "  ") // strings, an integer and a bool always marshal
	buf = append(buf[:len(buf)-len("\n}")], ",\n  \"answers\": "...)
	buf = answers.AppendJSON(buf)
	buf = append(buf, "\n}\n"...)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_, _ = w.Write(buf) // a failed write is a gone client
}

// parseQuery parses the ?q= conjunctive goal ("anc(c0, X), p(X)").
func parseQuery(q string) (ast.Query, error) {
	res, err := parser.Parse("?- " + q + ".")
	if err != nil {
		return ast.Query{}, err
	}
	if len(res.Queries) != 1 {
		return ast.Query{}, fmt.Errorf("want exactly one goal, got %d", len(res.Queries))
	}
	return res.Queries[0], nil
}

func (d *Daemon) handleQuery(w http.ResponseWriter, r *http.Request) {
	t, ok := d.tenant(w, r)
	if !ok {
		return
	}
	params := r.URL.Query()
	qtext := params.Get("q")
	if qtext == "" {
		failf(w, http.StatusBadRequest, "missing ?q= goal")
		return
	}
	q, err := parseQuery(qtext)
	if err != nil {
		failf(w, http.StatusBadRequest, "parse query: %v", err)
		return
	}
	comp := params.Get("component")
	snap, asOf, ok := pin(w, params, t)
	if !ok {
		return
	}
	ctx, cancel, err := d.reqCtx(r, params)
	if err != nil {
		failf(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	release, ok := admit(ctx, w, t)
	if !ok {
		return
	}
	defer release()
	if snap, ok = reconstruct(ctx, w, t, snap, asOf); !ok {
		return
	}
	tenantCounter(t.Name(), "reads").Inc()
	head := queryHeadJSON{Tenant: t.Name(), Component: comp, Version: snap.Version(), Query: q.String()}
	answers, err := snap.AnswersCtx(ctx, comp, q)
	setVersion(w, snap.Version())
	if err != nil {
		if partialErr(err) {
			// The least model did not converge inside the deadline: no
			// bindings exist yet. The truncation marker tells the client
			// this is a deadline artifact, not an empty answer set.
			head.Truncated = true
			markTruncated(w)
			writeQueryResp(w, http.StatusPartialContent, head, nil)
			return
		}
		failf(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeQueryResp(w, http.StatusOK, head, answers)
}

type proveRespJSON struct {
	Tenant    string `json:"tenant"`
	Component string `json:"component"`
	Version   uint64 `json:"version"`
	Literal   string `json:"literal"`
	Truncated bool   `json:"truncated"`
	Proved    *bool  `json:"proved"`
}

func (d *Daemon) handleProve(w http.ResponseWriter, r *http.Request) {
	t, ok := d.tenant(w, r)
	if !ok {
		return
	}
	params := r.URL.Query()
	ltext := params.Get("lit")
	if ltext == "" {
		failf(w, http.StatusBadRequest, "missing ?lit= literal")
		return
	}
	l, err := parser.ParseLiteral(ltext)
	if err != nil {
		failf(w, http.StatusBadRequest, "parse literal: %v", err)
		return
	}
	comp := params.Get("component")
	snap, asOf, ok := pin(w, params, t)
	if !ok {
		return
	}
	ctx, cancel, err := d.reqCtx(r, params)
	if err != nil {
		failf(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	release, ok := admit(ctx, w, t)
	if !ok {
		return
	}
	defer release()
	if snap, ok = reconstruct(ctx, w, t, snap, asOf); !ok {
		return
	}
	tenantCounter(t.Name(), "reads").Inc()
	resp := proveRespJSON{
		Tenant: t.Name(), Component: comp, Version: snap.Version(), Literal: l.String(),
	}
	proved, err := snap.ProveCtx(ctx, comp, l)
	setVersion(w, snap.Version())
	if err != nil {
		if partialErr(err) {
			resp.Truncated = true
			markTruncated(w)
			writeJSON(w, http.StatusPartialContent, resp)
			return
		}
		failf(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp.Proved = &proved
	writeJSON(w, http.StatusOK, resp)
}

type stableRespJSON struct {
	Tenant    string            `json:"tenant"`
	Component string            `json:"component"`
	Version   uint64            `json:"version"`
	Truncated bool              `json:"truncated"`
	Count     int               `json:"count"`
	Models    []json.RawMessage `json:"models"`
}

func (d *Daemon) handleStable(w http.ResponseWriter, r *http.Request) {
	t, ok := d.tenant(w, r)
	if !ok {
		return
	}
	params := r.URL.Query()
	comp := params.Get("component")
	var maxModels int
	if s := params.Get("max"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			failf(w, http.StatusBadRequest, "bad max %q", s)
			return
		}
		maxModels = n
	}
	snap, asOf, ok := pin(w, params, t)
	if !ok {
		return
	}
	ctx, cancel, err := d.reqCtx(r, params)
	if err != nil {
		failf(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	release, ok := admit(ctx, w, t)
	if !ok {
		return
	}
	defer release()
	if snap, ok = reconstruct(ctx, w, t, snap, asOf); !ok {
		return
	}
	tenantCounter(t.Name(), "reads").Inc()
	models, err := snap.StableModelsCtx(ctx, comp, stable.Options{MaxModels: maxModels})
	setVersion(w, snap.Version())
	if err != nil && !partialErr(err) {
		failf(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := stableRespJSON{
		Tenant: t.Name(), Component: comp, Version: snap.Version(),
		Count: len(models), Models: make([]json.RawMessage, 0, len(models)),
	}
	for _, m := range models {
		b, jerr := m.JSON(false)
		if jerr != nil {
			failf(w, http.StatusInternalServerError, "render model: %v", jerr)
			return
		}
		resp.Models = append(resp.Models, b)
	}
	if err != nil {
		// Partial enumeration: the models found before the deadline or
		// budget, plus the truncation marker.
		resp.Truncated = true
		markTruncated(w)
		writeJSON(w, http.StatusPartialContent, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
