package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/oracle/gen"
	"repro/internal/wal"
)

// The rows of the engine differential harness (harness_test.go). A row
// that replaced a hand-rolled suite keeps its name.

// corpusCases are the corpus programs at the seeds, the first short of
// them under -short, each with every k, named by format over the seed's
// offset from the first (and k, when there are several).
func corpusCases(format string, seeds []int64, short int, ks ...int) func(bool) []scriptCase {
	if ks == nil {
		ks = []int{0}
	}
	return func(isShort bool) []scriptCase {
		var out []scriptCase
		for _, seed := range seeds[:map[bool]int{false: len(seeds), true: short}[isShort]] {
			for _, k := range ks {
				name := ""
				switch {
				case len(ks) > 1:
					name = fmt.Sprintf(format, seed-seeds[0], k)
				case format != "":
					name = fmt.Sprintf(format, seed-seeds[0])
				}
				out = append(out, scriptCase{name, func(t *testing.T) *family { return corpusFamily(t, rand.New(rand.NewSource(seed))) }, seed, k})
			}
		}
		return out
	}
}

// servedCases are the read and write tenants at each tenant seed, then the
// corpus cases.
func servedCases(tenants string, tenantSeeds []int64, corpus func(bool) []scriptCase) func(bool) []scriptCase {
	return func(isShort bool) []scriptCase {
		var out []scriptCase
		for _, seed := range tenantSeeds {
			sub := ""
			if tenants != "" {
				sub = fmt.Sprintf(tenants, seed)
			}
			out = append(out, scriptCase{"reads" + sub, readsFamily, seed, 0}, scriptCase{"policy" + sub, policyFamily, seed, 0})
		}
		return append(out, corpus(isShort)...)
	}
}

func one(family func(*testing.T) *family) func(bool) []scriptCase {
	return func(bool) []scriptCase { return []scriptCase{{family: family}} }
}

// writesAndReads writes w times, reading after each, then reads pinned
// versions, asked goals only now.
func writesAndReads(w, reads, pinned int, kinds ...readKind) func(b *builder) {
	return func(b *builder) {
		b.mixed(reads, 0, kinds...)
		for i := 0; i < w; i++ {
			b.write()
			b.mixed(reads, 3, kinds...)
		}
		b.every(rModels, tTip, 0)
		b.read(rMagic, tTip)
		b.mixed(pinned, 1, kinds...)
	}
}

func seedRange(from, n, step int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = from + int64(i)*step
	}
	return out
}

// snapRow runs the writes, in order, on snapSrc, reading every version.
func snapRow(t *testing.T, writes []string, want ...string) {
	runRow(t, &row{cases: one(srcFamily(snapSrc, []string{"kb", "policy", "exc"},
		[]string{"ok(a)", "ok(c)", "ok(d)", "-ok(a)", "-ok(b)", "ok(X)", "-ok(X)", "bad(X)", "p(X)"}, writes)),
		configs: []engineConfig{cfgFull}, readers: 2, script: writesAndReads(len(writes), 6, 6, rProve, rAnswers, rLeast), want: want})
}

// Incremental maintenance: after every write every component's least
// model equals the oracle's, and the memoised model a rebuild over the
// snapshot; the AF and stable models of the last version too.
func TestUpdateDifferential(t *testing.T) {
	runRow(t, &row{cases: corpusCases("seed%03d", seedRange(0, 200, 1), 40), configs: []engineConfig{cfgFull}, readers: 2,
		script: func(b *builder) {
			for w := 3 + b.rng.Intn(3); w > 0; w-- {
				b.write()
				b.every(rLeast, tPin, 0)
				b.mixed(4, 3, rAnswers, rProve)
			}
			b.every(rModels, tPin, 0)
		},
		want: []string{"core.updates.incremental", "core.updates.reground"}})
}

// Compaction is invisible: engines that compact by cadence, by dead ratio
// or only at explicit Compact steps (one each, in turn), which must drain
// the dead set, answer as the oracle on every version and AsOf version.
func TestChurnCompactDifferential(t *testing.T) {
	runRow(t, &row{cases: corpusCases("seed%03d", seedRange(1000, 200, 1), 40), configs: []engineConfig{cfgEvery, cfgRatio, cfgFull}, rotate: true, readers: 2,
		script: func(b *builder) {
			for w := 4 + b.rng.Intn(4); w > 0; w-- {
				b.write()
				if b.rng.Intn(3) == 0 {
					b.compact()
				}
				b.every(rLeast, tPin, 0)
				b.mixed(3, 3, rAnswers, rProve)
				b.read(rLeast, tAsOf)
			}
			b.compact()
			b.every(rModels, tPin, 0)
		},
		want: []string{"update.compact.runs", "harness.compact.drained", "harness.read.asof"}})
}

// A model derived from a write's cone: batches of k = 1, 2 and 8 writes
// with no read between them, so up to eight writes' seeds accumulate on
// one base, then every component on the newest version and on each
// version the batch published, parents after their child.
func TestConeDifferential(t *testing.T) {
	runRow(t, &row{group: "corpus", cases: corpusCases("seed%03d/k%d", seedRange(2000, 200, 1), 40, 1, 2, 8), configs: []engineConfig{cfgFull}, readers: 2,
		script: func(b *builder) {
			b.every(rLeast, tTip, 0)
			for batch := 0; batch < 3; batch++ {
				b.drain()
				for w := 0; w < b.k; w++ {
					b.write()
				}
				for back := 0; back < b.k; back++ {
					b.every(rLeast, tPin, back)
				}
			}
		},
		want: []string{"core.least.cone", "core.least.cone_fallback.size"}})
}

// Goal slices over the corpus: goals of every shape through every answer
// path on a full and a goal-directed engine, proofs, and the AF and
// stable answer projections of an engine grounded with the goal's
// magic-set slice (Ground.Goal), before and after writes.
func TestGoalDirectedDifferentialCorpus(t *testing.T) {
	runRow(t, &row{cases: corpusCases("seed%03d", seedRange(0, 200, 1), 40), configs: []engineConfig{cfgFull, cfgGoal}, readers: 2,
		script: func(b *builder) {
			b.mixed(10, 0, rAnswers, rCut, rProve)
			b.read(rMagic, tTip)
			b.write()
			b.mixed(6, 2, rAnswers, rQuery, rProve, rExplain)
			b.read(rMagic, tPin)
		},
		want: []string{"core.route.cut", "harness.read.cut"}})
}

// The query index over the corpus: every goal shape — repeated variables,
// absent constants and predicates, joins binding later literals, mixed
// signs, builtin tails — answered byte for byte, order included, as a
// scan of the oracle's model, from component models and from slices,
// also over the exhaustive grounder.
func TestQueryDifferentialCorpus(t *testing.T) {
	runRow(t, &row{cases: corpusCases("seed%03d", seedRange(0, 200, 1), 40), configs: []engineConfig{cfgGoal, cfgModeFull}, readers: 2,
		script: func(b *builder) {
			for _, q := range b.f.goals {
				b.steps = append(b.steps, step{kind: sRead, read: rQuery, comp: b.comp(), q: q})
			}
			b.every(rLeast, tTip, 0)
			b.write()
			b.mixed(8, 2, rAnswers, rQuery)
		},
		want: []string{"core.route.cut", "core.route.model"}})
}

// Goal slices on the chain, where the adornment restricts bindings,
// against the oracle, after writes that append, kill and resurrect
// instances and force a reground.
func TestGoalDirectedDifferentialChain(t *testing.T) {
	runRow(t, &row{
		cases: func(short bool) []scriptCase {
			var out []scriptCase
			for _, sz := range [][2]int{{4, 2}, {6, 6}, {8, 5}}[:map[bool]int{false: 3, true: 2}[short]] {
				out = append(out, scriptCase{name: fmt.Sprintf("n%d_exc%d", sz[0], sz[1]), family: chainFamily(sz[0], sz[1])})
			}
			return out
		},
		configs: []engineConfig{cfgFull, cfgGoal}, readers: 3,
		script: writesAndReads(8, 10, 12, rAnswers, rQuery, rCut, rProve),
		want:   []string{"core.route.cut", "core.updates.reground"}})
}

// The resident program's columns under concurrency: the writer's asserts
// push the instance rows, body literals and competitor targets across at
// least three chunk boundaries each — checked first on a lone engine —
// while readers pinned at the first two versions keep asking, and every
// read, of a model, a cut or a proof, matches the oracle at its version.
func TestColumnChunksRaceWriter(t *testing.T) {
	const rounds = 15
	checkChunkCrossing(t, columnsFamily(rounds)(t), 3*rounds)
	runRow(t, &row{cases: one(columnsFamily(rounds)), configs: []engineConfig{cfgFull, cfgGoal}, readers: 4,
		script: func(b *builder) {
			kinds := []readKind{rAnswers, rLeast, rCut, rProve, rClosure}
			for w := 0; w < 3*rounds; w++ {
				b.write()
				b.mixed(2, 0, kinds...)
				for back := w; back <= w+1; back++ { // versions 1 and 0
					b.add(kinds[b.rng.Intn(len(kinds))], tPin, b.comp(), back)
				}
			}
		},
		want: []string{"core.updates.incremental", "harness.read.cut"}})
}

// checkChunkCrossing applies the family's first n writes to a fresh engine
// and fails unless the instances, body literals and distinct heads (the
// competitor targets) the writes added exceed three chunks of each column.
// A grounding chunks its columns by its possible atoms, at most twice its
// atoms A: at most max(16, 4A) rows or targets and twice that many body
// literals a chunk.
func checkChunkCrossing(t *testing.T, f *family, n int) {
	t.Helper()
	ctx := context.Background()
	e, err := NewEngineCtx(ctx, f.prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	count := func(s *Snapshot) (rows, lits, heads int) {
		seen := map[interp.Lit]bool{}
		for i := 0; i < s.rules.Len(); i++ {
			h, _, body := s.rules.At(i)
			lits += len(body)
			seen[h] = true
		}
		return s.rules.Len(), lits, len(seen)
	}
	s0 := e.Current()
	chunk := max(16, 4*s0.NumAtoms())
	rows0, lits0, heads0 := count(s0)
	for i := 0; i < n; i++ {
		c, l, _ := f.write(nil)
		if _, err := e.Update(ctx, f.prog.Components[c].Name, []ast.Literal{l}); err != nil {
			t.Fatal(err)
		}
	}
	rows, lits, heads := count(e.Current())
	if rows-rows0 < 3*chunk || lits-lits0 < 6*chunk || heads-heads0 < 3*chunk {
		t.Fatalf("%d writes added %d rows, %d body literals and %d heads; chunks hold up to %d rows and heads, %d body literals: fewer than three boundaries crossed",
			n, rows-rows0, lits-lits0, heads-heads0, chunk, 2*chunk)
	}
}

// Pinned versions asked goals they never saw only after later writes
// exist cut from an occurrence index covering instances they do not pin.
func TestGoalDirectedAfterWritesAndPinned(t *testing.T) {
	runRow(t, &row{cases: one(chainFamily(6, 3)), configs: []engineConfig{cfgGoal}, readers: 2,
		script: writesAndReads(7, 2, 40, rAnswers),
		want:   []string{"core.route.cut"}})
}

// After a write the goal's answers are the new version's, while a pinned
// snapshot keeps answering its own.
func TestGoalDirectedUpdateInvalidation(t *testing.T) {
	runRow(t, &row{cases: one(chainFamily(4, 2)), configs: []engineConfig{cfgGoal, cfgFull}, readers: 2,
		script: writesAndReads(3, 8, 12, rAnswers, rQuery),
		want:   []string{"core.route.cut"}})
}

// Readers race the writer on a goal-directed engine whose component model
// they compute, so routed answer misses keep answer sets while the writer
// appends to the shared ground program; cold goals read atoms later
// writes intern. Under -race this checks the occurrence index readers
// extend, the live counts and the memo's bound.
func TestGoalDirectedColdGoalsRaceWriter(t *testing.T) {
	runRow(t, &row{cases: one(chainFamily(12, 6)), configs: []engineConfig{cfgGoal}, readers: 6,
		script: writesAndReads(30, 8, 8, rAnswers, rAnswers, rAnswers, rLeast, rProve),
		want:   []string{"core.route.model", "core.answers.memo.misses"}})
}

// The route: sweeps of the goal pool cut past the line, so every version
// read switches to the model, and after each write the child cuts again
// until it crosses and derives its model from the write's carry; the cut
// itself is read on the full engine.
func TestGoalRouteDifferential(t *testing.T) {
	runRow(t, &row{cases: servedCases("/seed%d", []int64{1, 2, 3}, corpusCases("corpus/seed%03d", seedRange(0, 20, 10), 5)),
		configs: []engineConfig{cfgGoal, cfgFull}, readers: 4,
		script: func(b *builder) {
			b.sweep(rAnswers)
			for phase := 0; phase < 6; phase++ {
				b.write()
				b.sweep(rAnswers)
				b.mixed(12, 1, rAnswers, rCut)
			}
		},
		want: []string{"core.route.switches", "core.route.cut", "harness.read.cut"}})
}

// The answer memo: a small hot set asked over and over under variable
// renamings and literal reorderings (one cache entry, different answers),
// on the tip and on pinned versions, between writes; the readers share
// each version's models, so a first encoding races later hits. Every
// other write is a carry: a model the write leaves unaffected keeps its
// memo on the child. The memo must serve on each engine.
func TestAnswerMemoDifferential(t *testing.T) {
	runRow(t, &row{cases: servedCases("/seed%d", []int64{1, 2}, corpusCases("corpus/seed%03d", seedRange(0, 8, 25), 3)),
		configs: []engineConfig{cfgGoal, cfgFull}, readers: 4, perConfig: true,
		script: func(b *builder) {
			b.variants = true
			for phase := 0; phase <= 6; phase++ {
				if phase%2 == 1 {
					b.carry()
				} else if phase > 0 {
					b.write()
				}
				b.hot = b.rng.Perm(len(b.f.goals))[:min(6, len(b.f.goals))]
				b.mixed(48, 4, rAnswers)
			}
		},
		want: []string{"core.answers.memo.hits", "core.answers.memo.misses", "harness.carry.same"}})
}

// Proofs are membership in the model on every version: literals of both
// signs, over fresh constants too, on the tip and on pinned versions
// after every write, and explanations.
func TestProveDifferential(t *testing.T) {
	runRow(t, &row{cases: servedCases("", []int64{1}, corpusCases("corpus/seed%03d", seedRange(0, 8, 10), 3)),
		configs: []engineConfig{cfgFull, cfgGoal}, readers: 4,
		script: func(b *builder) {
			for w := 0; w <= 12; w++ {
				if w > 0 {
					b.write()
				}
				b.mixed(24, 3, rProve, rProve, rProve, rExplain)
			}
		},
		want: []string{"core.route.cut"}})
}

// The cut is exactly the closure over each version's live instances:
// retracted instances never cut, appended ones always. With indexFirst
// the first version cuts before any write, so later versions extend its
// index; without, the oldest versions cut last, from an index covering
// instances they do not pin.
func TestCutMatchesClosureAfterWrites(t *testing.T) {
	runRow(t, &row{
		cases: func(bool) []scriptCase {
			return []scriptCase{{"indexFirst=true", closureFamily, 1, 1}, {"indexFirst=false", closureFamily, 2, 0}}
		},
		configs: []engineConfig{cfgGoal}, readers: 2,
		script: func(b *builder) {
			if b.k == 1 {
				b.read(rClosure, tTip)
				b.drain()
			}
			for w := 0; w < 8; w++ {
				b.write()
				b.mixed(b.k*4, 2, rClosure)
			}
			for back := 0; back < 8; back++ {
				b.every(rClosure, tPin, back)
			}
		},
		want: []string{"harness.closure.past-prefix"}})
}

// TestCrashRecoveryDifferential is the crash-safety pin: a durable engine
// under random writes, killed by truncating a copy of its log at random
// byte offsets (the state a SIGKILL mid-append leaves). Each kill runs a
// script on the recovered engine: the tip, AsOf over the recovered window
// and the AF and stable models answer as the oracle at the surviving
// prefix, and the engine takes a write on the same chain. A flipped byte
// is tampering, not a crash: strict verification must refuse it — a check
// of the log's bytes, with no version to read, so it is no script.
func TestCrashRecoveryDifferential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	f := corpusFamily(t, rng)
	b := &builder{rng: rng, f: f}
	for w := map[bool]int{false: 60, true: 24}[testing.Short()]; w > 0; w-- {
		b.write()
	}
	before := obs.Default().Snap()
	h := &harness{t: t, f: f, c: cfgDurable, readers: 2, oc: &oracleCache{prog: f.prog, byLog: map[string]*oracleVersion{}}}
	end := h.run(b.steps, nil)
	raw, err := os.ReadFile(filepath.Join(end.dir, wal.LogName))
	if err != nil {
		t.Fatal(err)
	}
	for i := map[bool]int{false: 50, true: 12}[testing.Short()]; i > 0; i-- {
		cut := rng.Intn(len(raw) + 1)
		t.Run(fmt.Sprintf("kill@%05d", cut), func(t *testing.T) {
			g, err := crashAt(ctx, end, cfgDurable, int64(cut))
			if err != nil {
				t.Fatal(err)
			}
			wd, err := wal.Open(g.dir, false)
			if err != nil {
				t.Fatalf("checkpoints after recovery: %v", err)
			}
			cps := wd.Checkpoints
			kb := &builder{rng: rand.New(rand.NewSource(int64(cut))), f: f}
			kb.every(rLeast, tTip, 0)
			for v := cps[len(cps)-1].Version; v <= g.eng.Current().Version(); v++ {
				kb.every(rLeast, tAsOf, int(v))
			}
			kb.steps = append(kb.steps, step{kind: sRead, read: rModels, comp: 0},
				step{kind: sWrite, comp: 0, lit: ast.Pos(ast.Atom{Pred: "p0", Args: []ast.Term{ast.Sym("c0")}})})
			kb.every(rLeast, tTip, 0)
			(&harness{t: t, f: f, c: cfgDurable, readers: 2, oc: h.oc}).run(kb.steps, g)
		})
	}
	for i := map[bool]int{false: 20, true: 5}[testing.Short()]; i > 0; i-- {
		pos := rng.Intn(len(raw))
		tampered := t.TempDir()
		if err := copyDirTo(end.dir, tampered); err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(filepath.Join(tampered, wal.LogName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := wal.VerifyDir(tampered); err == nil {
			t.Fatalf("flipped bit at byte %d went undetected by VerifyDir", pos)
		}
	}
	if obs.Default().Snap().Diff(before)["harness.read.asof"] == 0 {
		t.Error("no AsOf read reached a recovered version")
	}
}

// Every goal shape answered byte for byte, order included, as a scan of
// the oracle's model: from the component's model, from the goal's slice
// and through the cut.
func TestQueryDifferentialShapes(t *testing.T) {
	runRow(t, &row{cases: one(shapesFamily), configs: []engineConfig{cfgFull, cfgGoal}, readers: 4,
		script: func(b *builder) {
			for _, q := range b.f.goals {
				for _, k := range []readKind{rAnswers, rQuery, rCut} {
					b.steps = append(b.steps, step{kind: sRead, read: k, comp: b.comp(), q: q})
				}
			}
		},
		want: []string{"harness.read.cut"}})
}

// The occurrence index equals a scan at every version of a run of writes —
// appends over fresh constants, retracts, resurrections and a compaction
// (a fresh program and index) — while readers cut random pinned versions,
// each also against the closure oracle; every version is cut again after
// the run, when newer versions have extended its program's index.
func TestOccIndexMatchesScan(t *testing.T) {
	runRow(t, &row{cases: one(occFamily), configs: []engineConfig{cfgGoal}, readers: 4,
		script: func(b *builder) {
			for w := 0; w < 60; w++ {
				if w == 30 {
					b.compact()
				}
				b.write()
				b.every(rClosure, tPin, 0)
				b.mixed(2, 1, rClosure)
			}
			for back := 0; back <= 60; back += 3 {
				b.every(rClosure, tPin, back)
			}
		},
		want: []string{"update.compact.runs", "harness.closure.past-prefix"}})
}

// Readers deriving models from cones race a writer that carries them
// forward: every version's model equals its rebuild and the oracle.
func TestConeConcurrentReadersAndWriter(t *testing.T) {
	runRow(t, &row{cases: one(policyFamily), configs: []engineConfig{cfgFull}, readers: 4,
		script: writesAndReads(100, 2, 0, rLeast), want: []string{"core.least.cone"}})
}

// A snapshot answers as its own version while the writer toggles facts.
func TestConcurrentReadersDuringUpdates(t *testing.T) {
	runRow(t, &row{cases: one(policyFamily), configs: []engineConfig{cfgFull}, readers: 4,
		script: writesAndReads(50, 4, 0, rProve, rAnswers), want: []string{"core.updates.incremental"}})
}

// A chain of updates answers as the oracle at every step, in every
// component.
func TestUpdateManyVersionsAgree(t *testing.T) {
	runRow(t, &row{cases: one(policyFamily), configs: []engineConfig{cfgFull}, readers: 1,
		script: func(b *builder) {
			for w := 0; w < 6; w++ {
				b.write()
				b.every(rLeast, tPin, 0)
			}
		},
		want: []string{"core.updates.incremental"}})
}

// Readers reconstructing past versions race a writer that crosses the
// compaction cadence several times: the history a reader cuts a prefix of
// is one the writer only ever extends past it.
func TestAsOfRacesWriter(t *testing.T) {
	runRow(t, &row{cases: one(policyFamily), configs: []engineConfig{cfgEvery}, readers: 4,
		script: func(b *builder) {
			for w := 0; w < 24; w++ {
				b.write()
				for i := 0; i < 4; i++ {
					b.read(rLeast, tAsOf)
				}
			}
		},
		want: []string{"update.compact.runs", "harness.read.asof"}})
}

// One engine shared by many readers with no writer: least models, queries,
// model enumerations and proofs across overlapping components, with no
// cross-talk between the per-component caches.
func TestEngineSharedRace(t *testing.T) {
	runRow(t, &row{cases: one(policyFamily), configs: []engineConfig{cfgFull}, readers: 16,
		script: func(b *builder) {
			b.f.comps = []string{"kb", "policy", "exc"}
			b.mixed(400, 0, rLeast, rQuery, rModels, rProve)
		},
		want: []string{"core.least.hits"}})
}

// A retract of a ground fact that a universal fact t(X) also derives must
// reground — a rebuild keeps the instance — and so must one of the last
// fact with a compound argument, whose rebuild universe collapses to the
// fresh-constant fallback; both answer as the oracle after.
func TestRetractUniversalFactFallsBack(t *testing.T) {
	runRow(t, &row{cases: one(srcFamily("module m { q(a). q(b). s(X) :- q(X). t(a). t(X). }",
		[]string{"m"}, []string{"t(a)", "t(b)", "s(a)", "t(X)"}, []string{"retract m t(a)"})),
		configs: []engineConfig{cfgFull}, readers: 2, script: writesAndReads(1, 4, 4, rProve, rAnswers),
		want: []string{"core.update.fallback.universal-fact"}})
}

func TestRetractCompoundFactFallsBack(t *testing.T) {
	runRow(t, &row{cases: one(srcFamily("module m { p(f(c)). p(X) :- p(X). q(X). }",
		[]string{"m"}, []string{"q(c)", "q(f(c))", "q(X)", "p(X)"}, []string{"retract m p(f(c))"})),
		configs: []engineConfig{cfgFull}, readers: 2, script: writesAndReads(1, 4, 4, rLeast, rAnswers),
		want: []string{"core.update.fallback.compound-args"}})
}

// A retract of a fact the source states twice, holding a constant's last
// occurrence, shrinks the universe: a rebuild has no d, so neither u(d)
// nor -t(d) survives, and the retract regrounds.
func TestRetractDuplicatedFactShrinksUniverse(t *testing.T) {
	runRow(t, &row{cases: one(srcFamily("module m { r(d, a). r(d, a). r(b, a). u(X). -t(X) :- u(X). }",
		[]string{"m"}, []string{"u(X)", "-t(X)", "u(d)"}, []string{"retract m r(d, a)"})),
		configs: []engineConfig{cfgFull}, readers: 2, script: writesAndReads(1, 4, 4, rLeast, rAnswers),
		want: []string{"core.update.fallback.last-constant"}})
}

// The batch entry point answers every slot as the oracle, its requests
// spread over every component, on a shared engine racing least models of
// the same components, and inherits the goal-directed routing.
func TestEngineBatchRace(t *testing.T) {
	inheritance := func(t *testing.T) *family {
		f := &family{prog: gen.Inheritance(5, 4, 6), small: true}
		for lvl := 0; lvl < 5; lvl++ {
			f.comps = append(f.comps, fmt.Sprintf("lvl%d", lvl))
		}
		f.addGoals(t, "p0(X)", "-p1(X)", "p2(X), member(X)", "p3(X)")
		return f
	}
	runRow(t, &row{cases: one(inheritance), configs: []engineConfig{cfgFull}, readers: 8,
		script: func(b *builder) { b.mixed(160, 0, rBatch, rLeast) }, want: []string{"core.least.hits"}})
}

func TestGoalDirectedBatch(t *testing.T) {
	runRow(t, &row{cases: one(chainFamily(6, 3)), configs: []engineConfig{cfgGoal, cfgFull}, readers: 2,
		script: writesAndReads(2, 6, 6, rBatch), want: []string{"core.route.cut"}})
}

// The cut keeps only instances the magic-set slice of the same goal keeps,
// over the corpus and the read tenant, whose reach goals are the
// degraded-SIP shape the magic slice grounds unrestricted.
func TestCutWithinMagicSlice(t *testing.T) {
	runRow(t, &row{
		cases: func(short bool) []scriptCase {
			return append(corpusCases("", seedRange(0, 200, 1), 40)(short), scriptCase{family: readsFamily})
		},
		configs: []engineConfig{cfgGoal}, readers: 2,
		script: func(b *builder) { b.mixed(8, 0, rWithin) }, want: []string{"harness.read.within"}})
}

// An assert over a fresh constant stays incremental and leaves the
// parent snapshot as it was.
func TestUpdateAssertIncremental(t *testing.T) {
	snapRow(t, []string{"assert kb p(c)"}, "core.updates.incremental=1", "core.updates.reground=0")
}

// Asserting a fact in effect, or retracting an absent one, publishes
// nothing.
func TestUpdateNoop(t *testing.T) {
	snapRow(t, []string{"assert kb p(a)", "retract kb evil(zz)"}, "core.updates=0")
}

// bad has a defining rule, so its facts are not EDB-shaped: an assert, its
// retract and a re-assert (a resurrection) all stay incremental, and the
// pinned middle version keeps the exception.
func TestRetractIncrementalAndResurrect(t *testing.T) {
	snapRow(t, []string{"assert kb bad(a)", "retract kb bad(a)", "assert kb bad(a)"}, "core.updates.incremental=3", "core.updates.reground=0")
}

// A negative fact regrounds the effective program; later writes are
// incremental again, and a retract of the negative fact replays.
func TestUpdateFallbackReground(t *testing.T) {
	snapRow(t, []string{"assert exc -ok(b)", "assert kb p(d)", "retract exc -ok(b)"}, "core.update.fallback.negative-fact=1", "core.updates.incremental")
}

// asOfRow runs the six writes, a close and recovery when asked, then
// reads every version in every component through AsOfCtx.
func asOfRow(t *testing.T, writes []string, recover bool, configs []engineConfig, want ...string) {
	runRow(t, &row{cases: one(srcFamily("module main { q(X) :- p(X). p(a). }", []string{"main"}, nil, writes)),
		readers: 2, configs: configs, want: want, script: func(b *builder) {
			for w := 0; w < 6; w++ {
				b.write()
			}
			if recover {
				b.recover()
			}
			for v := 0; v <= 6; v++ {
				b.every(rLeast, tAsOf, v)
			}
		}})
}

// A durable engine recovered from its log answers every version below its
// recovered base through the WAL: with checkpoints every two records the
// base is the newest checkpoint, and with a compaction every two writes
// the in-memory floor has passed the early versions too. Past the
// recovered tip no version is known (the harness asks on every run).
func TestAsOfFromDisk(t *testing.T) {
	asOfRow(t, []string{"assert main p(x0)", "assert main p(x1)", "retract main p(a)", "assert main p(x2)", "assert main p(a)", "retract main p(x0)"},
		true, []engineConfig{{name: "durable-cp2", durable: true, checkpoint: 2}, cfgDurableCompact}, "harness.read.asof=14")
}

// TestCompactAsOfFallsThroughToWAL is TestAsOfFromDisk's durable-compact
// configuration without the recovery.
func TestCompactAsOfFallsThroughToWAL(t *testing.T) {
	asOfRow(t, []string{"assert main p(x0)", "assert main p(x1)", "assert main p(x2)", "assert main p(x3)", "assert main p(x4)", "assert main p(x5)"},
		false, []engineConfig{cfgDurableCompact}, "harness.read.asof=7", "update.compact.runs")
}

// kindsSrc derives from p/1 and q/1 in both components; kindsFamily adds
// the facts whose constants render like the source's but differ in kind.
const kindsSrc = `module base {
  p(1). p(a). q(g(x)).
  r(X) :- p(X).
  s(X) :- q(X).
}
module top extends base {
  -r(X) :- q(X).
  t(X) :- p(X), q(X).
}
`

// kindsVarGoal and kindsSymGoal ask p over a hand-built variable named x
// and over the symbol x: two goals, which render apart.
var (
	kindsVarGoal = ast.Query{Body: []ast.Literal{ast.Pos(ast.Atom{Pred: "p", Args: []ast.Term{ast.Var{Name: "x"}}})}}
	kindsSymGoal = ast.Query{Body: []ast.Literal{ast.Pos(ast.Atom{Pred: "p", Args: []ast.Term{ast.Sym("x")}})}}
)

// kindsFamily mixes Int 1 with Sym "1", the compound g(x) with Sym
// "g(x)", and Sym "a b", which renders as a quoted name. Its writes,
// cycled in order, retract and assert each of a pair while the other is
// live, in base and in top. Its goals include kindsVarGoal and
// kindsSymGoal.
func kindsFamily(t *testing.T) *family {
	f := &family{prog: mustProgram(t, kindsSrc), comps: []string{"base", "top"}, small: true}
	one, gx := ast.Sym("1"), ast.Sym("g(x)")
	fact := func(pred string, c ast.Term) ast.Literal {
		return ast.Pos(ast.Atom{Pred: pred, Args: []ast.Term{c}})
	}
	base := f.prog.Components[compIndex(t, f.prog, "base")]
	base.AddRule(ast.Fact(fact("p", one)))
	base.AddRule(ast.Fact(fact("q", gx)))
	if err := f.prog.Validate(); err != nil {
		t.Fatal(err)
	}
	f.addGoals(t, "p(X)", "q(X)", "r(X)", "-r(X)", "s(X)", "t(X)", "p(1)", "r(1)", "q(g(x))", "-r(g(x))")
	for _, l := range []ast.Literal{fact("p", one), fact("r", one), fact("q", gx), fact("s", gx), fact("t", one), fact("r", gx).Complement()} {
		f.goals = append(f.goals, ast.Query{Body: []ast.Literal{l}})
		f.atoms = append(f.atoms, l.Atom)
	}
	f.goals = append(f.goals, kindsVarGoal, kindsSymGoal)
	int1, cgx, ab := ast.Int(1), ast.Compound{Functor: "g", Args: []ast.Term{ast.Sym("x")}}, ast.Sym("a b")
	var pool []step
	for _, w := range []struct {
		comp    string
		l       ast.Literal
		retract bool
	}{
		{"base", fact("p", one), true}, {"base", fact("p", one), false},
		{"base", fact("p", int1), true}, {"base", fact("p", int1), false},
		{"base", fact("q", gx), true}, {"base", fact("q", gx), false},
		{"base", fact("q", cgx), true}, {"base", fact("q", cgx), false},
		{"top", fact("q", one), false}, {"top", fact("q", int1), false},
		{"top", fact("q", one), true}, {"top", fact("p", ab), false},
		{"top", fact("q", int1), true}, {"top", fact("q", ab), false},
		{"base", fact("p", one), true}, {"top", fact("p", ab), true},
	} {
		pool = append(pool, step{comp: compIndex(t, f.prog, w.comp), lit: w.l, retract: w.retract})
		f.atoms = append(f.atoms, w.l.Atom)
	}
	next := 0
	f.write = func(*rand.Rand) (int, ast.Literal, bool) {
		w := pool[next%len(pool)]
		next++
		return w.comp, w.lit, w.retract
	}
	return f
}

// preparedFamily is a family with two spellings of one goal added to its
// pool, each its own text and so its own prepared Goal.
func preparedFamily(base func(*testing.T) *family, spellings ...string) func(*testing.T) *family {
	return func(t *testing.T) *family {
		f := base(t)
		f.addGoals(t, spellings...)
		return f
	}
}

// Prepared goals: every read asks through the run's one Goal for its goal
// text, prepared when a reader first asks it and then shared by every
// version — the tip, pinned and AsOf ones — and by the racing readers.
// The pools hold two spellings of one goal, and on the kinds family goals
// over Int 1 and over Sym "1", which render alike.
func TestPreparedGoalDifferential(t *testing.T) {
	runRow(t, &row{cases: func(bool) []scriptCase {
		return []scriptCase{
			{name: "kinds", family: preparedFamily(kindsFamily, "t(X),p(X)", "t(X), p(X)")},
			{name: "reads", family: preparedFamily(readsFamily, "path(c2,X)", "path(c2, X)"), seed: 1},
		}
	}, configs: []engineConfig{cfgFull, cfgGoal, cfgEvery}, readers: 4,
		script: func(b *builder) {
			for w := 0; w < 24; w++ {
				b.write()
				b.mixed(10, 3, rPrep)
				b.read(rPrep, tAsOf)
			}
		},
		want: []string{"core.goals.hits", "core.goals.misses", "harness.read.prepared"}})
}

// Facts equal in rendering but not in kind are distinct facts: each is
// asserted and retracted while the other is live, and every version — on
// an engine that compacts every three writes too, collapsing the history
// by fact — answers as the oracle, whose log key tells the kinds apart.
func TestKindsDifferential(t *testing.T) {
	runRow(t, &row{cases: one(kindsFamily), configs: []engineConfig{cfgFull, cfgGoal, cfgEvery}, readers: 2,
		script: func(b *builder) {
			for w := 0; w < 32; w++ {
				b.write()
				b.every(rLeast, tTip, 0)
				b.mixed(4, 3, rAnswers, rProve)
				b.read(rLeast, tAsOf)
			}
			b.every(rModels, tTip, 0)
		},
		want: []string{"core.updates.incremental", "update.compact.runs", "harness.index.checked"}})
	// The goals over the variable x and the symbol x are two memo entries
	// with two answer sets, on each engine.
	ctx := context.Background()
	for _, c := range memoConfigs {
		eng, err := NewEngineCtx(ctx, kindsFamily(t).prog, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := eng.Current()
		ask := func(q ast.Query) *Answers {
			a, err := s.AnswersCtx(ctx, "base", q)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		v, sym := ask(kindsVarGoal), ask(kindsSymGoal)
		if v.n == sym.n || ask(kindsVarGoal) != v || ask(kindsSymGoal) != sym {
			t.Errorf("%s: %s and %s answer %d and %d rows, want two sets kept apart", c.name, kindsVarGoal, kindsSymGoal, v.n, sym.n)
		}
	}
}
