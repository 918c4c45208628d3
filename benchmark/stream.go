package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/workload"
)

const (
	opQuery uint8 = iota
	opAssert
	opRetract
)

// op is one request of the stream. arg indexes stream.goals for a query
// and stream.keys for a write; class indexes stream.classes and is the
// harness's prediction of which latency class the op lands in.
type op struct {
	kind, class uint8
	arg         int32
}

// stream is everything one run feeds the system: the tenant's program and
// the seeded op sequence, already cut into its phases.
type stream struct {
	workload string
	tenant   string // tenant name; also names the durability directory
	comp     string // component every op addresses
	source   string // program text loaded into the tenant
	engine   core.Config
	durable  bool
	setups   int // fresh daemons set-up is timed on

	goals   []string // query texts
	keys    []string // toggled fact texts, without the final '.'
	classes []string

	fixture []op   // untimed: writes the recovery fixture (durable workloads)
	warm    []op   // untimed: fills caches and reaches the compaction cadence
	rounds  [][]op // timed
}

// perRound scales a per-round op count at refSeconds to the requested run
// length.
func perRound(base, seconds int) int {
	n := base * seconds / refSeconds
	if n < 10 {
		n = 10
	}
	return n
}

// readsSource renders the read tenant: a left-recursive path/2 over an
// edge chain, a right-recursive reach/2 over a hop chain (the shape whose
// head-only SIP degrades to unrestricted grounding), one exception each in
// the more specific component, and an unrelated module no goal touches.
func readsSource(n, m int) string {
	var sb strings.Builder
	sb.WriteString("module base {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  edge(c%d, c%d).\n", i, i+1)
	}
	for i := 0; i < m; i++ {
		fmt.Fprintf(&sb, "  hop(h%d, h%d).\n", i, i+1)
	}
	sb.WriteString("  path(X, Y) :- edge(X, Y).\n  path(X, Z) :- path(X, Y), edge(Y, Z).\n")
	sb.WriteString("  reach(X, Y) :- hop(X, Y).\n  reach(X, Z) :- hop(X, Y), reach(Y, Z).\n}\n")
	fmt.Fprintf(&sb, "module exc extends base {\n  -path(X, c%d) :- edge(X, c%d).\n  -reach(X, h%d) :- hop(X, h%d).\n}\n",
		n/2, n/2, m/2, m/2)
	sb.WriteString("module items {\n")
	for j := 0; j < n/4; j++ {
		fmt.Fprintf(&sb, "  item(d%d).\n", j)
	}
	sb.WriteString("  ok(X) :- item(X).\n}\n")
	return sb.String()
}

// policySource renders the write tenant (the B10/B14 program): kb facts, a
// policy deriving ok/1 from each, and the exception component the writes
// land in.
func policySource(kb int) string {
	var sb strings.Builder
	sb.WriteString("module kb {\n")
	for i := 0; i < kb; i++ {
		fmt.Fprintf(&sb, "p(c%d).\n", i)
	}
	sb.WriteString("}\nmodule policy extends kb { ok(X) :- p(X). }\nmodule exc extends policy {\n-ok(X) :- bad(X).\n}\n")
	return sb.String()
}

// Goal templates of the read tenant. Anchors stay below n/2 and m/2, the
// exception points, so every goal has answers.
func scanGoal(i int) string     { return fmt.Sprintf("path(c%d, X)", i) }
func pointGoal(i, j int) string { return fmt.Sprintf("path(c%d, c%d)", i, j) }
func joinGoal(i int) string     { return fmt.Sprintf("path(c%d, X), edge(X, Y)", i) }
func reachGoal(i int) string    { return fmt.Sprintf("reach(h%d, X)", i) }

// newStream builds the seeded stream of one workload.
func newStream(name string, p profile, seed int64, seconds int) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "query-hot":
		return hotStream(p, rng, seconds), nil
	case "query-cold":
		return coldStream(p, rng, seconds), nil
	case "update-churn":
		return churnStream(p, rng, seconds), nil
	case "mixed-rw":
		return mixedStream(p, rng, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func readsStream(name string, p profile) *stream {
	return &stream{
		workload: name, tenant: "reads", comp: "exc",
		source: readsSource(p.chainN, p.hopM),
		engine: core.Config{GoalDirected: true},
		setups: p.setups,
	}
}

// zipfMix returns n items over {0..k-1} in Zipf(s=1.2) proportions and a
// seeded order. The proportions are exact (largest-remainder apportionment
// of n over the probabilities) rather than sampled, so every round and
// every seed has the same mix and only the order differs: the op-class
// shares, and with them the percentiles, do not move with the seed. keep
// filters the keys (nil keeps all).
func zipfMix(rng *rand.Rand, n, k int, keep func(int) bool) []int {
	z := workload.NewZipf(rng, 1.2, k)
	type share struct {
		key   int
		exact float64
		n     int
	}
	var shares []share
	total := 0.0
	for i := 0; i < k; i++ {
		if keep == nil || keep(i) {
			shares = append(shares, share{key: i, exact: z.Prob(i)})
			total += z.Prob(i)
		}
	}
	left := n
	for i := range shares {
		shares[i].exact *= float64(n) / total
		shares[i].n = int(shares[i].exact)
		left -= shares[i].n
	}
	sort.SliceStable(shares, func(i, j int) bool {
		return shares[i].exact-float64(shares[i].n) > shares[j].exact-float64(shares[j].n)
	})
	for i := 0; i < left; i++ {
		shares[i].n++
	}
	items := make([]int, 0, n)
	for _, sh := range shares {
		for j := 0; j < sh.n; j++ {
			items = append(items, sh.key)
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// hotStream: hotGoals distinct goals in Zipf s=1.2 proportions. Rank r gets
// template r%4, which fixes the class shares (scan 46%, point 24%, join
// 17%, reach 13%) for every seed; the seed picks each goal's anchor from a
// band of eight constants, so answer sizes differ by at most 2% between
// seeds, and orders the requests.
func hotStream(p profile, rng *rand.Rand, seconds int) *stream {
	s := readsStream("query-hot", p)
	s.classes = []string{"scan", "point", "join", "reach"}
	const band = 8
	class := make([]uint8, p.hotGoals)
	anchors := [4][]int{rng.Perm(band), rng.Perm(band), rng.Perm(band), rng.Perm(band)}
	for r := 0; r < p.hotGoals; r++ {
		t := r % 4
		a := anchors[t][(r/4)%band]
		switch t {
		case 0:
			s.goals = append(s.goals, scanGoal(a))
		case 1:
			s.goals = append(s.goals, pointGoal(a, band+1+r%(p.chainN/2-band-1)))
		case 2:
			s.goals = append(s.goals, joinGoal(a))
		case 3:
			s.goals = append(s.goals, reachGoal(a))
		}
		class[r] = uint8(t)
	}
	for g := range s.goals { // one pass fills the slice cache
		s.warm = append(s.warm, op{kind: opQuery, class: class[g], arg: int32(g)})
	}
	n := perRound(p.hotRound, seconds)
	for r := 0; r < p.rounds; r++ {
		round := make([]op, n)
		for i, g := range zipfMix(rng, n, p.hotGoals, nil) {
			round[i] = op{kind: opQuery, class: class[g], arg: int32(g)}
		}
		s.rounds = append(s.rounds, round)
	}
	return s
}

// coldStream: a fixed set of distinct goals, four in five path-anchored
// (anchors spread over the whole chain, three templates) and one in five
// reach-anchored (degraded SIP). The seed orders the path goals and the
// reach goals; every fifth request is a reach goal, so the 32 slices the
// cache holds when heap_mb is sampled are the same mix on every seed (a
// reach slice is fifty times a path slice). The warm-up and every round are
// the same sweep, so all rounds do identical work and — the sweep being
// larger than the slice cache — no request ever hits.
func coldStream(p profile, rng *rand.Rand, seconds int) *stream {
	s := readsStream("query-cold", p)
	s.classes = []string{"path", "reach"}
	n := perRound(p.coldRound, seconds) / 5 * 5
	nReach := min(n/5, p.hopM)
	nPath := n - nReach
	for j := 0; j < nPath; j++ {
		a := j * (p.chainN - 8) / nPath
		switch j % 3 {
		case 0:
			s.goals = append(s.goals, scanGoal(a))
		case 1:
			s.goals = append(s.goals, pointGoal(a, a+1+j%7))
		case 2:
			s.goals = append(s.goals, joinGoal(a))
		}
	}
	for j := 0; j < nReach; j++ {
		s.goals = append(s.goals, reachGoal(j))
	}
	paths, reaches := rng.Perm(nPath), rng.Perm(nReach)
	sweep := make([]op, 0, n)
	for len(paths)+len(reaches) > 0 {
		if len(sweep)%5 == 4 && len(reaches) > 0 || len(paths) == 0 {
			sweep = append(sweep, op{kind: opQuery, class: 1, arg: int32(nPath + reaches[0])})
			reaches = reaches[1:]
		} else {
			sweep = append(sweep, op{kind: opQuery, class: 0, arg: int32(paths[0])})
			paths = paths[1:]
		}
	}
	s.warm = sweep
	for r := 0; r < p.rounds; r++ {
		s.rounds = append(s.rounds, sweep)
	}
	return s
}

func policyStream(name string, p profile) *stream {
	return &stream{
		workload: name, tenant: "policy", comp: "exc",
		source:  policySource(p.kb),
		engine:  core.Config{CompactEvery: p.compactEvery},
		durable: true,
		setups:  p.setups,
	}
}

// toggler emits the write that flips key k and remembers the new state.
type toggler struct{ live []bool }

func (t *toggler) flip(k int) uint8 {
	t.live[k] = !t.live[k]
	if t.live[k] {
		return opAssert
	}
	return opRetract
}

// settle is the number of cheap writes that end the warm-up and every round
// of a write workload: as many as the daemon retains snapshot versions
// (serve.Config.Retain's default). Without them heap_mb would mostly say how
// many of the last eight versions happened to be regrounds, each pinning
// its own ground program; after them the retention ring holds eight
// versions of one program on every round and every seed.
const settle = 8

// churnStream: 100% writes toggling bad(K), K in Zipf s=1.2 proportions over
// the key window. Keys at churnNonKB ranks name constants outside kb: asserting one
// grows the universe (incremental, but a delta pass over every rule) and
// retracting it shrinks the universe, which regrounds. Toggling a kb
// constant is the cheap incremental case.
func churnStream(p profile, rng *rand.Rand, seconds int) *stream {
	s := policyStream("update-churn", p)
	s.classes = []string{"toggle", "grow", "reground"}
	for k := 0; k < p.churnWindow; k++ {
		if churnNonKB(k) {
			s.keys = append(s.keys, fmt.Sprintf("bad(k%d)", k))
		} else {
			s.keys = append(s.keys, fmt.Sprintf("bad(c%d)", k))
		}
	}
	t := toggler{live: make([]bool, p.churnWindow)}
	inKB := func(k int) bool { return !churnNonKB(k) }
	draw := func(n int) []op {
		keys := append(zipfMix(rng, n-settle, p.churnWindow, nil), zipfMix(rng, settle, p.churnWindow, inKB)...)
		ops := make([]op, n)
		for i, k := range keys {
			kind := t.flip(k)
			class := uint8(0)
			if churnNonKB(k) {
				class = kind // opAssert grows, opRetract regrounds
			}
			ops[i] = op{kind: kind, class: class, arg: int32(k)}
		}
		return ops
	}
	s.fixture = draw(p.fixtureOps)
	s.warm = draw(p.churnWarm)
	for r := 0; r < p.rounds; r++ {
		s.rounds = append(s.rounds, draw(perRound(p.churnRound, seconds)))
	}
	return s
}

// mixedStream: 40% point reads -ok(cI), 40% range reads -ok(X), 20% writes
// toggling bad(cI) uniformly over the first mixedWindow kb constants (never
// a fresh constant, so always incremental). The fixture's toggles bring
// the window to its equilibrium of half the keys live, so the range answer
// size is stationary from the first timed op. A read that directly follows
// a write finds the least-model memo invalidated and rebuilds it; those
// reads are their own class. The seed orders the reads and picks which of
// them a write precedes, one write at most, so the class shares are the
// same on every seed: 20% writes, 20% rebuilds, 60% memo hits.
func mixedStream(p profile, rng *rand.Rand, seconds int) *stream {
	s := policyStream("mixed-rw", p)
	s.setups *= 3 // its log holds only incremental records and replays in milliseconds
	s.classes = []string{"point", "range", "write", "rebuild"}
	s.goals = append(s.goals, "-ok(X)")
	for i := 0; i < p.mixedWindow; i++ {
		s.goals = append(s.goals, fmt.Sprintf("-ok(c%d)", i))
	}
	for k := 0; k < p.mixedWindow; k++ {
		s.keys = append(s.keys, fmt.Sprintf("bad(c%d)", k))
	}
	t := toggler{live: make([]bool, p.mixedWindow)}
	write := func() op {
		k := rng.Intn(p.mixedWindow)
		return op{kind: t.flip(k), class: 2, arg: int32(k)}
	}
	s.fixture = make([]op, p.fixtureOps)
	for i := range s.fixture {
		s.fixture[i] = write()
	}
	draw := func(n int) []op {
		writes := max(n/5-settle, 0)
		reads := n - n/5 - 1
		before := make([]bool, reads) // a write precedes this read
		for _, i := range rng.Perm(reads)[:writes] {
			before[i] = true
		}
		ops := make([]op, 0, n)
		read := func(point, rebuild bool) {
			o := op{kind: opQuery, class: 1, arg: 0}
			if point {
				o = op{kind: opQuery, class: 0, arg: int32(1 + rng.Intn(p.mixedWindow))}
			}
			if rebuild {
				o.class = 3
			}
			ops = append(ops, o)
		}
		for i, k := range rng.Perm(reads) {
			if before[i] {
				ops = append(ops, write())
			}
			read(k < n*2/5, before[i])
		}
		// The settled tail: eight writes, then the read that rebuilds the memo.
		for i := 0; i < settle; i++ {
			ops = append(ops, write())
		}
		read(false, true)
		return ops
	}
	s.warm = draw(p.mixedWarm)
	for r := 0; r < p.rounds; r++ {
		s.rounds = append(s.rounds, draw(perRound(p.mixedRound, seconds)))
	}
	return s
}

// hash fingerprints the whole stream: program, texts and every op.
func (s *stream) hash() string {
	h := sha256.New()
	for _, part := range [][]string{{s.workload, s.tenant, s.comp, s.source}, s.goals, s.keys, s.classes} {
		for _, t := range part {
			fmt.Fprintf(h, "%d:%s", len(t), t)
		}
	}
	phases := append([][]op{s.fixture, s.warm}, s.rounds...)
	for _, ops := range phases {
		_ = binary.Write(h, binary.LittleEndian, int64(len(ops))) // a hash.Hash never fails a write
		for _, o := range ops {
			_ = binary.Write(h, binary.LittleEndian, [3]int32{int32(o.kind), int32(o.class), o.arg})
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// timedOps is the number of ops in the timed rounds.
func (s *stream) timedOps() int {
	n := 0
	for _, r := range s.rounds {
		n += len(r)
	}
	return n
}
