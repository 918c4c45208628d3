package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/relevance"
	"repro/internal/wal"
)

// The traced run attributes an op's time to the layers from outside: this
// package may not add spans inside the program, so the same seeded stream
// is executed three ways, each on fresh state.
//
//	A  through serve's handler, untraced       (runServe's path, shortened)
//	B  through core's public API, one span per call
//	C  as standalone calls of the lower layers' public functions on the
//	   benchmark's own objects, one span per call
//
// A layer's self time is its own span minus the spans of the layers it
// calls: serve = A - B - parser, core = B - (ground + eval + wal from C).
// Counts are obs counter deltas over B's traced ops.

// traceRounds is how many of the stream's rounds each of A, B and C runs
// after the (untraced) warm-up.
const traceRounds = 2

// span is one traced call. Parent indexes the spans array (-1 for a root);
// spans of one op share OpID (-1 for set-up work).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	OpID    int32  `json:"op_id"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, op int32) int32 {
	t.spans = append(t.spans, span{Name: name, StartNs: time.Since(t.t0).Nanoseconds(), Parent: parent, OpID: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].EndNs = time.Since(t.t0).Nanoseconds() }

// per lists the durations, in microseconds, of the spans of one name that
// keep selects (nil selects all); total sums them.
func (t *tracer) per(name string, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return out
}

func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.per(name, nil) {
		sum += d
	}
	return sum
}

// opFlags is what B observed an op do, read from obs counters around the
// call. C replays the lower-layer work the flags say happened.
type opFlags struct {
	sliceMiss  bool // the goal's slice was not cached: analysis, slice grounding, slice fixpoint
	leastBuilt bool // the component's least model was recomputed: view build + fixpoint
	reground   bool
	compacted  bool
	checkpoint bool
}

// flagCounters are the obs counters the flags are read from.
type flagCounters struct{ miss, least, reground, compact, checkpoint *obs.Counter }

func newFlagCounters() flagCounters {
	r := obs.Default()
	return flagCounters{
		miss: r.Counter("relevance.cache.misses"), least: r.Counter("core.least.computed"),
		reground: r.Counter("core.updates.reground"), compact: r.Counter("update.compact.runs"),
		checkpoint: r.Counter("wal.checkpoints"),
	}
}

func (f flagCounters) read() [5]int64 {
	return [5]int64{f.miss.Value(), f.least.Value(), f.reground.Value(), f.compact.Value(), f.checkpoint.Value()}
}

// parsedStream is the stream's texts parsed once, outside any span.
type parsedStream struct {
	queries []ast.Query
	facts   []ast.Literal
}

func parseStream(s *stream) (*parsedStream, error) {
	ps := &parsedStream{}
	for _, g := range s.goals {
		res, err := parser.Parse("?- " + g + ".")
		if err != nil {
			return nil, fmt.Errorf("goal %q: %w", g, err)
		}
		ps.queries = append(ps.queries, res.Queries[0])
	}
	for _, k := range s.keys {
		l, err := parser.ParseLiteral(k)
		if err != nil {
			return nil, fmt.Errorf("fact %q: %w", k, err)
		}
		ps.facts = append(ps.facts, l)
	}
	return ps, nil
}

func durabilityOptions(p profile) []core.Option {
	return []core.Option{
		core.WithCheckpointEvery(p.checkpointEvery), core.WithSync(wal.SyncInterval),
		core.WithRotateRecords(p.rotateRecords), core.WithKeepCheckpoints(p.keepCheckpoints),
	}
}

// coreRun is the outcome of run B.
type coreRun struct {
	flags    []opFlags // per traced op
	wall     time.Duration
	counts   obs.Snap // obs deltas over the traced ops
	recovery obs.Snap // obs deltas over core.Recover
	failed   int
	fail     string

	deadEnd, logEventsEnd int
	dirBytes              int64
	segments              int
}

// traceCore is run B: the stream through core's public API.
func traceCore(ctx context.Context, tr *tracer, s *stream, ps *parsedStream, p profile, fixture, tmp string, answers []int) (*coreRun, error) {
	out := &coreRun{}
	reg := core.NewRegistry(0, 0)
	defer reg.Close()
	tenantDir := filepath.Join(tmp, "core", s.tenant)
	if s.durable {
		if err := copyDir(filepath.Join(fixture, s.tenant), tenantDir); err != nil {
			return nil, err
		}
		before := obs.Default().Snap()
		root := tr.begin("setup/core", -1, -1)
		id := tr.begin("core.recover", root, -1)
		eng, err := core.Recover(ctx, tenantDir, s.engine, durabilityOptions(p)...)
		tr.end(id)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		out.recovery = obs.Default().Snap().Diff(before)
		if _, _, err := reg.Attach(s.tenant, eng); err != nil {
			return nil, err
		}
	} else {
		res, err := parser.Parse(s.source)
		if err != nil {
			return nil, err
		}
		if _, _, err := reg.Put(ctx, s.tenant, res.Program, s.engine); err != nil {
			return nil, err
		}
	}
	tenant, _ := reg.Get(s.tenant)
	sh := newShadow(s.keys)
	for _, o := range s.fixture {
		sh.apply(o)
	}
	fc := newFlagCounters()
	do := func(o op, i int32, traced bool) {
		var root, id int32
		var c0 [5]int64
		if traced {
			c0 = fc.read()
			root = tr.begin("op/core", -1, i)
		}
		var got int
		var err error
		if o.kind == opQuery {
			if traced {
				id = tr.begin("core.query", root, i)
			}
			var bs []core.Binding
			bs, err = tenant.Current().QueryCtx(ctx, s.comp, ps.queries[o.arg])
			got = len(bs)
		} else {
			if traced {
				id = tr.begin("core.update", root, i)
			}
			write := tenant.Update
			if o.kind == opRetract {
				write = tenant.Retract
			}
			var snap *core.Snapshot
			snap, err = write(ctx, s.comp, []ast.Literal{ps.facts[o.arg]})
			sh.apply(o)
			if err == nil {
				got = int(snap.Version())
			}
		}
		if traced {
			tr.end(id)
			tr.end(root)
			c1 := fc.read()
			out.flags = append(out.flags, opFlags{c1[0] > c0[0], c1[1] > c0[1], c1[2] > c0[2], c1[3] > c0[3], c1[4] > c0[4]})
		}
		want := int(sh.version)
		switch {
		case o.kind != opQuery:
		case s.durable:
			want = sh.rows(o.arg)
		default:
			want = answers[o.arg]
		}
		if err != nil || got != want {
			out.failed++
			if out.fail == "" {
				out.fail = fmt.Sprintf("core op %d: got %d, want %d, err %v", i, got, want, err)
			}
		}
	}
	for _, o := range s.warm {
		do(o, -1, false)
	}
	before := obs.Default().Snap()
	start := time.Now()
	i := int32(0)
	for _, ops := range s.rounds[:traceRounds] {
		for _, o := range ops {
			do(o, i, true)
			i++
		}
	}
	out.wall = time.Since(start)
	out.counts = obs.Default().Snap().Diff(before)
	snap := tenant.Current()
	out.deadEnd, out.logEventsEnd = snap.NumDeadRules(), snap.NumLogEvents()
	if s.durable {
		if err := reg.Close(); err != nil {
			return nil, err
		}
		entries, err := os.ReadDir(tenantDir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				out.dirBytes += info.Size()
			}
		}
		segs, err := wal.ListSegments(tenantDir)
		if err != nil {
			return nil, err
		}
		out.segments = len(segs)
	}
	return out, nil
}

// layerState is run C's own copy of a tenant, maintained with the lower
// layers' public functions only. For the policy tenant it mirrors what
// core.Engine.update does with them: delta assert/retract on one ground
// program with a dead set, a reground from the effective source when the
// delta layer refuses, one WAL append per write and a sync per checkpoint
// cadence. Compaction and checkpoint writing are core's own policy and
// stay in core's self time.
type layerState struct {
	tr   *tracer
	s    *stream
	p    profile
	prog *ast.OrderedProgram
	comp int

	gp   *ground.Program
	dead map[int32]struct{}
	live []bool

	log       *wal.Log
	version   uint64
	sinceSync int
}

// timed runs fn inside a span of the op.
func (st *layerState) timed(name string, root, op int32, fn func()) {
	id := st.tr.begin(name, root, op)
	fn()
	st.tr.end(id)
}

// effectiveSource renders the policy program with the live toggled facts in
// the exception component: what a reground rebuilds from.
func (st *layerState) effectiveSource() string {
	var extra strings.Builder
	for k, on := range st.live {
		if on {
			extra.WriteString(st.s.keys[k] + ".\n")
		}
	}
	return strings.Replace(st.s.source, "-ok(X) :- bad(X).\n", "-ok(X) :- bad(X).\n"+extra.String(), 1)
}

func (st *layerState) groundAll(ctx context.Context, src string) error {
	res, err := parser.Parse(src)
	if err != nil {
		return err
	}
	gp, err := ground.GroundCtx(ctx, res.Program, ground.DefaultOptions())
	if err != nil {
		return err
	}
	st.prog, st.gp, st.dead = res.Program, gp, make(map[int32]struct{})
	return nil
}

func (st *layerState) write(ctx context.Context, o op, root, id int32) error {
	var fact ast.Literal
	var err error
	st.timed("parser.facts", root, id, func() {
		var extra *ast.OrderedProgram
		if extra, err = parser.ParseProgram(st.s.keys[o.arg] + "."); err == nil {
			fact = extra.Components[0].Rules[0].Head
		}
	})
	if err != nil {
		return err
	}
	facts := []ast.Literal{fact}
	st.live[o.arg] = o.kind == opAssert
	verb := "assert"
	if o.kind == opAssert {
		var d *ground.Delta
		st.timed("ground.delta_assert", root, id, func() { d, err = st.gp.AssertFacts(ctx, st.comp, facts) })
		if err == nil {
			for _, idx := range d.Existing {
				delete(st.dead, idx)
			}
		}
	} else {
		verb = "retract"
		var gone []int32
		st.timed("ground.delta_retract", root, id, func() { gone, err = st.gp.RetractFacts(st.comp, facts) })
		for _, idx := range gone {
			st.dead[idx] = struct{}{}
		}
	}
	if errors.Is(err, ground.ErrNeedsReground) {
		src := st.effectiveSource()
		st.timed("ground.reground", root, id, func() { err = st.groundAll(ctx, src) })
	}
	if err != nil {
		return err
	}
	st.version++
	st.timed("wal.append", root, id, func() {
		_, err = st.log.Append(st.version, verb, st.s.comp, []string{st.s.keys[o.arg]})
	})
	if err != nil {
		return err
	}
	if st.sinceSync++; st.sinceSync >= st.p.checkpointEvery {
		st.sinceSync = 0
		st.timed("wal.sync", root, id, func() { err = st.log.Sync() })
	}
	return err
}

// read replays the lower-layer work B saw the query cause.
func (st *layerState) read(ctx context.Context, o op, f opFlags, root, id int32) error {
	var q ast.Query
	var err error
	st.timed("parser.query", root, id, func() {
		var res *parser.Result
		if res, err = parser.Parse("?- " + st.s.goals[o.arg] + "."); err == nil {
			q = res.Queries[0]
		}
	})
	if err != nil || !(f.sliceMiss || f.leastBuilt) {
		return err
	}
	gp, dead := st.gp, st.dead
	if f.sliceMiss {
		st.timed("relevance.analyze", root, id, func() { relevance.Analyze(st.prog, q.Body) })
		opts := ground.DefaultOptions()
		opts.Goal = q.Body
		st.timed("ground.slice", root, id, func() { gp, err = ground.GroundCtx(ctx, st.prog, opts) })
		if err != nil {
			return err
		}
		dead = nil
	}
	var v *eval.View
	st.timed("eval.view_build", root, id, func() { v = eval.NewViewOf(gp, st.comp, gp.Rules, dead) })
	st.timed("eval.fixpoint", root, id, func() { _, err = v.LeastModelCtx(ctx) })
	return err
}

// traceLayers is run C. Its state starts where the traced ops start: the
// program as the fixture and the warm-up leave it, grounded once, rather
// than replayed write by write — the set-up spans are that parse and that
// full grounding.
func traceLayers(ctx context.Context, tr *tracer, s *stream, p profile, fixture, tmp string, flags []opFlags) error {
	st := &layerState{tr: tr, s: s, p: p, live: make([]bool, len(s.keys))}
	src := s.source
	if s.durable {
		for _, o := range append(append([]op(nil), s.fixture...), s.warm...) {
			if o.kind != opQuery {
				st.live[o.arg] = o.kind == opAssert
			}
		}
		src = st.effectiveSource()
	}
	root := tr.begin("setup/layers", -1, -1)
	span := func(name string, fn func()) {
		id := tr.begin(name, root, -1)
		fn()
		tr.end(id)
	}
	var res *parser.Result
	var err error
	span("parser.program", func() { res, err = parser.Parse(src) })
	if err != nil {
		return err
	}
	st.prog = res.Program
	span("ground.full", func() { st.gp, err = ground.GroundCtx(ctx, st.prog, ground.DefaultOptions()) })
	if err != nil {
		return err
	}
	st.dead = make(map[int32]struct{})
	st.comp, _ = st.prog.ComponentIndex(s.comp)
	if s.durable {
		span("wal.readall", func() {
			_, err = wal.ReadAll(filepath.Join(fixture, s.tenant), wal.Genesis(s.tenant), false)
		})
		if err != nil {
			return err
		}
		dir := filepath.Join(tmp, "layers")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		st.log, err = wal.OpenLogWith(dir, wal.Genesis(s.tenant), 0, wal.LogOptions{Policy: wal.SyncInterval, RotateRecords: p.rotateRecords})
		if err != nil {
			return err
		}
		defer st.log.Close()
	}
	tr.end(root)
	i := int32(0)
	for _, ops := range s.rounds[:traceRounds] {
		for _, o := range ops {
			root := tr.begin("op/layers", -1, i)
			if o.kind == opQuery {
				err = st.read(ctx, o, flags[i], root, i)
			} else {
				err = st.write(ctx, o, root, i)
			}
			tr.end(root)
			if err != nil {
				return fmt.Errorf("layers op %d: %w", i, err)
			}
			i++
		}
	}
	return nil
}

// ratio is a/b, or 0 when the workload gives the denominator nothing to
// count.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serveRun is the outcome of run A.
type serveRun struct {
	c         *client
	ops       int
	lat, wall time.Duration // summed ServeHTTP time and wall clock of the ops
	counts    obs.Snap
	answers   []int // reads tenant: rows per goal, for B's check
}

// traceServe is run A: set-up, warm-up and traceRounds rounds through
// serve's handler with the full oracle, untraced. The daemon is closed
// before B and C run.
func traceServe(ctx context.Context, s *stream, p profile, tmp string) (*serveRun, error) {
	s.setups = 1
	sv, err := setUp(ctx, s, p, tmp)
	if err != nil {
		return nil, err
	}
	defer sv.d.Close() // harmless after roundTrip's own Close
	out := &serveRun{c: sv.c, answers: make([]int, len(s.goals))}
	for _, o := range s.warm {
		out.c.do(o)
	}
	out.c.respBytes = 0
	before := obs.Default().Snap()
	start := time.Now()
	for _, ops := range s.rounds[:traceRounds] {
		for _, o := range ops {
			out.lat += out.c.do(o)
			out.ops++
		}
	}
	out.wall = time.Since(start)
	out.counts = obs.Default().Snap().Diff(before)
	if s.durable {
		if err := roundTrip(ctx, sv.d, out.c, sv.cfg); err != nil {
			out.c.fail("durability round trip: %v", err)
		}
		return out, nil
	}
	if _, err := checkReads(ctx, out.c); err != nil {
		return nil, err
	}
	for g, body := range out.c.canon {
		if body != nil {
			if out.answers[g], err = countAnswers(body); err != nil {
				return nil, err
			}
		}
	}
	out.c.h = nil // B and C run without A's engine in the heap
	return out, nil
}

// runTrace is the traced run: A shortened, then B, then C, and the
// per-layer metrics computed from the three.
func runTrace(ctx context.Context, rc runConfig) (*record, error) {
	s, err := newStream(rc.workload, rc.prof, rc.seed, rc.seconds)
	if err != nil {
		return nil, err
	}
	if len(s.rounds) < traceRounds {
		return nil, fmt.Errorf("traced run needs %d rounds", traceRounds)
	}
	rec := newRecord(rc, s, true)
	rec.Ops.Rounds = traceRounds
	tmp, err := os.MkdirTemp(rc.outDir, "trace-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	ps, err := parseStream(s)
	if err != nil {
		return nil, err
	}

	a, err := traceServe(ctx, s, rc.prof, tmp)
	if err != nil {
		return nil, err
	}
	c, n := a.c, a.ops

	// B and C, traced.
	tr := &tracer{t0: time.Now()}
	fixture := filepath.Join(tmp, "fixture")
	b, err := traceCore(ctx, tr, s, ps, rc.prof, fixture, tmp, a.answers)
	if err != nil {
		return nil, err
	}
	if err := traceLayers(ctx, tr, s, rc.prof, fixture, tmp, b.flags); err != nil {
		return nil, err
	}
	// Per-layer metrics. Times are microseconds per traced op unless the
	// name says otherwise.
	ops := float64(n)
	set := func(name string, v float64) {
		rec.Metrics[name] = metricValue{Value: v, Unit: specOf(perLayer, name).unit}
	}
	perOp := func(name string) float64 { return tr.total(name) / ops }
	cnt := func(name string) float64 { return float64(b.counts[name]) }
	when := func(name string, pick func(opFlags) bool) []float64 { // spans of name on ops the flag selects
		return tr.per(name, func(sp span) bool { return pick(b.flags[sp.OpID]) })
	}
	coreQuery, coreUpdate := perOp("core.query"), perOp("core.update")
	parse := perOp("parser.query") + perOp("parser.facts")
	set("serve.self_us_per_op", us(a.lat)/ops-coreQuery-coreUpdate-parse)
	set("serve.resp_bytes_per_op", float64(c.respBytes)/ops)
	set("serve.errors", float64(a.counts["serve.errors"]))
	set("serve.admission.rejected", float64(a.counts["serve.admission.rejected"]))
	set("parser.query_us_per_op", perOp("parser.query"))
	set("parser.facts_us_per_op", perOp("parser.facts"))
	set("parser.program_ms", tr.total("parser.program")/1e3)
	set("relevance.analyze_us_per_op", perOp("relevance.analyze"))
	set("relevance.cache.hit_ratio", ratio(cnt("relevance.cache.hits"), cnt("relevance.cache.hits")+cnt("relevance.cache.misses")))
	set("relevance.cache.evictions_per_op", cnt("relevance.cache.evictions")/ops)
	set("relevance.sip.degraded_per_op", cnt("relevance.sip.degraded")/ops)
	set("ground.full_ms", tr.total("ground.full")/1e3)
	set("ground.slice_us_per_op", perOp("ground.slice"))
	sliceInstances := 0.0
	if !s.durable { // on the read tenant every instance grounded during the ops is a slice's
		sliceInstances = cnt("ground.instances") / ops
	}
	set("ground.slice_instances_per_op", sliceInstances)
	set("ground.delta_assert_us_per_op", perOp("ground.delta_assert"))
	set("ground.delta_retract_us_per_op", perOp("ground.delta_retract"))
	set("ground.reground_us_per_op", perOp("ground.reground"))
	set("ground.runs_per_op", cnt("ground.runs")/ops)
	set("storage.join.calls_per_op", cnt("storage.join.calls")/ops)
	set("storage.join.reordered_per_op", cnt("storage.join.reordered")/ops)
	set("eval.view_build_us_per_op", perOp("eval.view_build"))
	set("eval.fixpoint_us_per_op", perOp("eval.fixpoint"))
	set("eval.fixpoints_per_op", cnt("eval.fixpoints")/ops)
	set("eval.fired_per_op", cnt("eval.fired")/ops)
	set("core.query_us_per_op", coreQuery)
	set("core.query_self_us_per_op", coreQuery-perOp("ground.slice")-perOp("eval.view_build")-perOp("eval.fixpoint"))
	set("core.least.hit_ratio", ratio(cnt("core.least.hits"), cnt("core.least.hits")+cnt("core.least.computed")))
	set("core.view.hit_ratio", ratio(cnt("core.view.hits"), cnt("core.view.hits")+cnt("core.view.builds")))
	set("core.update_us_per_op", coreUpdate)
	set("core.update_self_us_per_op", coreUpdate-perOp("ground.delta_assert")-perOp("ground.delta_retract")-
		perOp("ground.reground")-perOp("wal.append")-perOp("wal.sync"))
	set("core.update.incremental_us_p50", median(when("core.update", func(f opFlags) bool { return !f.reground && !f.compacted })))
	set("core.update.reground_ratio", ratio(cnt("core.updates.reground"), cnt("core.updates")))
	set("core.update.reground_ms_p50", median(when("core.update", func(f opFlags) bool { return f.reground }))/1e3)
	set("core.compact.runs", cnt("update.compact.runs"))
	set("core.compact.stall_ms_p50", median(when("core.update", func(f opFlags) bool { return f.compacted }))/1e3)
	set("core.snapshot.dead_end", float64(b.deadEnd))
	set("core.snapshot.log_events_end", float64(b.logEventsEnd))
	set("core.recover_ms_per_record", ratio(tr.total("core.recover")/1e3, float64(b.recovery["wal.recover.records"])))
	set("wal.append_us_per_op", perOp("wal.append"))
	set("wal.bytes_per_op", cnt("wal.bytes")/ops)
	set("wal.checkpoint.stall_ms_p50", median(when("core.update", func(f opFlags) bool { return f.checkpoint }))/1e3)
	set("wal.sync_us_per_call", median(tr.per("wal.sync", nil)))
	set("wal.fsyncs", cnt("wal.fsyncs"))
	set("wal.dir_bytes_end", float64(b.dirBytes))
	set("wal.segments_end", float64(b.segments))
	set("wal.readall_ms", tr.total("wal.readall")/1e3)
	set("trace.overhead_ratio", a.wall.Seconds()/b.wall.Seconds()) // B's ops_per_s over A's

	rec.Attempted, rec.Failed, rec.FirstFailure = 2*n, c.failed+b.failed, c.firstFail
	if rec.FirstFailure == "" {
		rec.FirstFailure = b.fail
	}
	rec.Correct = rec.Failed == 0
	tracePath := filepath.Join(rc.outDir, "trace-"+rc.workload+".json")
	if err := writeTrace(tracePath, rec, tr); err != nil {
		return nil, err
	}
	rec.Checks = append(rec.Checks, fmt.Sprintf("%d spans written to %s", len(tr.spans), tracePath))
	rec.report(rc.log)
	return rec, nil
}

// writeTrace writes the spans with the run's provenance.
func writeTrace(path string, rec *record, tr *tracer) error {
	b, err := json.Marshal(struct {
		Run   *record `json:"run"`
		Spans []span  `json:"spans"`
	}{rec, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
