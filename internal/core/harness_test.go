package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/oracle/gen"
	"repro/internal/oracle/naive"
	"repro/internal/stable"
	"repro/internal/wal"
)

// The engine differential harness. Every read path the engine has — a
// component's least model, a goal's cut, the route to the model, the cone
// a write carries, the answer memo, a proof, an explanation, a pinned or
// time-travelled version, a recovery — must answer on every version as the
// naive least model (Definition 4, iterated from ∅) of the effective
// program at that version, grounded afresh (internal/oracle/naive).
//
// A script is a program and a sequence of steps run by one writer: writes
// (assert, retract, fresh constants, forced regrounds), compactions and
// crashes it applies itself, and reads it hands to k readers that run
// concurrently with it. Each reader records the version it read; after the
// run every record is compared with the oracle at that version. One script
// runs on each engine configuration of its row. A row names the program
// family, the script shape, the configurations, the seeds and the counters
// that must move, over the row or on each configuration, so a row cannot
// pass by never taking its path.

// family is a program with the pools its scripts draw from: the components
// goals are asked in, goals, ground atoms to prove, and writes.
type family struct {
	prog  *ast.OrderedProgram
	comps []string
	goals []ast.Query
	texts []string // the text each goal was parsed from; "" for one built by hand
	atoms []ast.Atom
	pool  []factEvent // the writes write draws from, when it draws from a pool
	// write draws one write: a component, a fact, and whether it retracts.
	write func(rng *rand.Rand) (int, ast.Literal, bool)
	// small marks a base small enough to enumerate AF and stable models.
	small bool
}

// addGoals parses goals into the family; a ground one-literal goal's atom
// is one to prove too.
func (f *family) addGoals(t *testing.T, goals ...string) {
	for len(f.texts) < len(f.goals) {
		f.texts = append(f.texts, "")
	}
	for _, g := range goals {
		q := parseGoal(t, g)
		f.goals, f.texts = append(f.goals, q), append(f.texts, g)
		if len(q.Body) == 1 && q.Body[0].Atom.Ground() {
			f.atoms = append(f.atoms, q.Body[0].Atom)
		}
	}
}

// addWrites adds "comp fact" writes to the pool the family draws from,
// retracting one in three, and their atoms to those to prove.
func (f *family) addWrites(t *testing.T, writes ...string) {
	for _, w := range writes {
		comp, fact, _ := strings.Cut(w, " ")
		l := lit(t, fact)
		f.pool = append(f.pool, factEvent{comp: compIndex(t, f.prog, comp), lit: l})
		f.atoms = append(f.atoms, l.Atom)
	}
	f.write = func(rng *rand.Rand) (int, ast.Literal, bool) {
		w := f.pool[rng.Intn(len(f.pool))]
		return w.comp, w.lit, rng.Intn(3) == 0
	}
}

func compIndex(tb testing.TB, p *ast.OrderedProgram, name string) int {
	i, ok := p.ComponentIndex(name)
	if !ok {
		tb.Fatalf("no component %q", name)
	}
	return i
}

// corpusFamily is a program of the seeded corpus drawn from rng (three
// components, constants c0..c2). Its writes are random facts over
// p0..p3/1 and e/2 and constants c0..c4 — the top two fresh, so asserts
// grow the universe and retracts often miss — negative ones among them,
// which force a reground.
func corpusFamily(t *testing.T, rng *rand.Rand) *family {
	const comps, nconst = 3, 3
	f := &family{prog: gen.RandomOrderedDatalog(rng, comps, nconst), small: true}
	for _, c := range f.prog.Components {
		f.comps = append(f.comps, c.Name)
	}
	cst := func(i int) ast.Term { return ast.Sym(fmt.Sprintf("c%d", i)) }
	for k := 0; k < 4; k++ {
		for i := 0; i < nconst+2; i++ {
			f.atoms = append(f.atoms, ast.Atom{Pred: fmt.Sprintf("p%d", k), Args: []ast.Term{cst(i)}})
		}
	}
	for i := 0; i < nconst+2; i++ {
		for j := 0; j < nconst+2; j++ {
			f.atoms = append(f.atoms, ast.Atom{Pred: "e", Args: []ast.Term{cst(i), cst(j)}})
		}
	}
	f.addGoals(t, []string{
		"p0(c0)", "p1(X)", "-p1(X)", "-p1(c1)", "-p2(X)", "-p2(c1)", "p2(c2)", "e(c1, c2)", // scans and ground probes
		"e(X, X)",                          // repeated variable
		"e(c0, X)", "e(X, c1)", "e(c9, X)", // one argument bound; a constant absent from the model
		"nosuch(X)",                       // a predicate absent from the model
		"p0(X), e(X, Y)", "p0(X), -p1(X)", // first argument bound by an earlier literal
		"e(X, Y), p3(Y)",                  // inner literal fully bound
		"e(X, Y), e(Y, Z), -p1(Z)",        // three-literal join
		"e(X, Y), -p1(Y), p2(X)",          // mixed signs
		"e(X, Y), X != Y", "p0(X), p0(X)", // builtin tail; the same literal twice
		"e(X, Y)", "p3(X), e(X, Y)", "-p0(X)", // unbound goals covering every instance
	}...)
	f.write = func(rng *rand.Rand) (int, ast.Literal, bool) {
		c := func() ast.Term { return cst(rng.Intn(nconst + 2)) }
		var l ast.Literal
		if rng.Intn(3) == 0 {
			l = ast.Pos(ast.Atom{Pred: "e", Args: []ast.Term{c(), c()}})
		} else {
			l = ast.Literal{Atom: ast.Atom{Pred: fmt.Sprintf("p%d", rng.Intn(4)), Args: []ast.Term{c()}}, Neg: rng.Intn(4) == 0}
		}
		return rng.Intn(comps), l, rng.Intn(2) == 0
	}
	return f
}

// readsFamily is the serving benchmark's read tenant at (40, 20): goals in
// the query-cold templates and fresh constants c41, h21 in its writes,
// whose last retract regrounds.
func readsFamily(t *testing.T) *family {
	f := &family{prog: mustProgram(t, gen.ReadsSource(40, 20)), comps: []string{"exc", "base"}}
	for a := 0; a < 40; a += 2 {
		for _, g := range []string{"path(c%[1]d, X)", "path(c%[1]d, c%[2]d)", "path(c%[1]d, X), edge(X, Y)", "reach(h%[3]d, X)"} {
			f.addGoals(t, fmt.Sprintf(g, a, a+1+a%7, a/2))
		}
	}
	f.addGoals(t, "-path(X, c20)", "path(X, c9)", "-reach(X, h10)", "reach(h2, h10)")
	for i := 0; i < 12; i++ {
		f.addWrites(t, fmt.Sprintf("base edge(c%d, c%d)", 3*i, 41-i%3), fmt.Sprintf("base hop(h%d, h%d)", i, 21-i%2), fmt.Sprintf("exc edge(c%d, c20)", 2*i))
	}
	return f
}

// policyFamily is the serving benchmark's write tenant at kb = 30: bad(cK)
// toggles in exc, and p(c30), p(c31) over fresh constants.
func policyFamily(t *testing.T) *family {
	const kb = 30
	f := &family{prog: mustProgram(t, gen.PolicySource(kb)), comps: []string{"exc", "policy"}, small: true}
	for k := 0; k < kb+2; k++ {
		f.addGoals(t, fmt.Sprintf("ok(c%d)", k), fmt.Sprintf("-ok(c%d)", k))
		f.addWrites(t, fmt.Sprintf("exc bad(c%d)", k))
	}
	f.addGoals(t, "ok(X)", "-ok(X)", "bad(X)", "p(X)")
	f.addWrites(t, "kb p(c30)", "kb p(c31)")
	return f
}

// chainText is the right-recursive transitive closure over an n-edge chain
// with an exception component and a disconnected junk component: the
// family where the adornment restricts bindings (path^bf).
func chainText(n, excAt int) string {
	var b strings.Builder
	b.WriteString("module base {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  edge(c%d, c%d).\n", i, i+1)
	}
	b.WriteString("  path(X, Y) :- edge(X, Y).\n")
	b.WriteString("  path(X, Z) :- path(X, Y), edge(Y, Z).\n")
	b.WriteString("}\n")
	fmt.Fprintf(&b, "module exc extends base {\n  -path(X, c%d) :- edge(X, c%d).\n}\n", excAt, excAt)
	b.WriteString("module junk {\n  jedge(c0, c1).\n  jpath(X, Y) :- jedge(X, Y).\n}\n")
	return b.String()
}

// chainFamily is chainText(n, excAt). Its writes add edges into fresh
// constants c(n+1).. and retract chain edges (which kills instances and,
// re-asserted, resurrects them); one negative fact forces a reground.
func chainFamily(n, excAt int) func(*testing.T) *family {
	return func(t *testing.T) *family {
		f := &family{prog: mustProgram(t, chainText(n, excAt)), comps: []string{"base", "exc"}, small: n <= 8}
		r := strings.NewReplacer("N", fmt.Sprint(n), "E", fmt.Sprint(excAt), "L", fmt.Sprint(n-1), "F", fmt.Sprint(n+3))
		f.addGoals(t, strings.Split(r.Replace("path(c0, cN);path(c0, X);path(c1, X);path(X, Y);path(c0, X), edge(X, Y);"+
			"-path(c0, cE);path(X, cL);-path(X, cE);-path(X, Y);path(c1, X), path(X, cN);jpath(X, Y);nosuch(c0, X);"+
			"edge(X, Y);path(X, cF);path(c0, c1);path(c1, cN);path(c2, c0);jpath(c0, c1);path(c0, cF);path(c3, cF)"), ";")...)
		for i := 0; i < n; i++ {
			f.addWrites(t, fmt.Sprintf("base edge(c%d, c%d)", i, n+1+i%5), fmt.Sprintf("base edge(c%d, c%d)", i, i+1))
		}
		f.addWrites(t, fmt.Sprintf("exc edge(c1, c%d)", excAt), "base -path(c0, c4)")
		return f
	}
}

// closureFamily is the read tenant at (12, 6), small enough for the
// closure oracle, with writes that append over fresh constants, kill and
// resurrect instances.
func closureFamily(t *testing.T) *family {
	f := &family{prog: mustProgram(t, gen.ReadsSource(12, 6)), comps: []string{"base", "exc"}}
	f.addGoals(t, "path(c2, X)", "path(X, c13)", "path(c2, c13)", "-path(X, Y)", "reach(h1, X)", "path(c0, X), hop(X, Y)", "nosuch(X)")
	f.addWrites(t, "base edge(c12, c13)", "base edge(c5, c6)", "base hop(h6, c1)", "exc edge(c4, c13)")
	return f
}

// shapesFamily is shapesSrc with no writes: compound and integer
// arguments, zero-arity predicates, arity-3 and arity-4 predicates whose
// leading columns tie.
func shapesFamily(t *testing.T) *family {
	f := &family{prog: mustProgram(t, shapesSrc), comps: []string{"base", "exc"}}
	f.addGoals(t, []string{
		"flag", "-flag", "flag2", "-flag2", "flag, n(X, Y)", "n(X, Y), flag", // zero arity
		"n(3, X)", "n(X, 2)", "n(10, 2)", "n(2, 10)", "-n(3, X)", "-n(X, Y)", // integer first argument
		"n(X, Y), X < Y", "n(X, Y), n(Y, Z), X + Z < 6", "n(X, Y), Y = 2", // builtin tails
		"n(X, Y), n(Y, Z), n(Z, W)", // three-literal join
		"t(X, X)", "t(f(X), X)",     // repeated variable, also under a functor
		"t(f(a), Y)", "t(g(a, b), Y)", // ground compound first argument
		"t(f(X), Y)", "t(g(X, b), Y)", // partial compound first argument
		"t(X, f(X))", "t(X, Y), t(f(Y), Z)", // compound built from an earlier binding
		"t(f(X), a), -t(f(X), b)", // derived negative literal
		"w(f(g(X, N)), N)", "w(f(X), N), N > 1", "w(X, 3)",
		"t(X, Y), n(X, Y)", "t(7, X), n(X, Y)", // no common answers
		"twice(X, Y)", "twice(3, Y)",
		"1 < 2", "2 < 1", "X < 3", "n(X, Y), Z < 3", // builtin-only, unbound builtin variable
		"r3(X, Y, Z)", "r3(a, Y, Z)", "r3(X, 1, Z)", "r3(X, Y, a)", "-r3(X, Y, Z)", // arity 3: no, first, middle, last argument bound
		"r4(X, Y, Z, W)", "r4(a, Y, Z, W)", "r4(X, b, Z, W)", "r4(X, Y, 1, W)", "-r4(X, Y, Z, W)", // arity 4
		"r4(a, b, 1, W)", "r4(X, b, 1, x)", "r4(a, b, 1, x)", // bound prefixes, bound ends, ground
		"r3(X, Y, Z), r4(X, Y, Z, W)", "r3(X, 1, Z), r4(Z, b, V, W)", // joins binding later columns
		"span(X, Y, Z, W)", "span(a, Y, Z, W)", "span(X, 1, Z, W)", // derived arity 4
	}...)
	return f
}

// occFamily is the read tenant at (12, 6) with writes that append edges
// over fresh constants n0..n7, retract chain edges and resurrect them.
func occFamily(t *testing.T) *family {
	f := &family{prog: mustProgram(t, gen.ReadsSource(12, 6)), comps: []string{"base", "exc"}}
	f.addGoals(t, "path(c2, X)", "path(X, c5)", "-path(X, Y)", "edge(X, Y)", "reach(h1, X)", "path(n3, X)", "path(c2, c7)", "nosuch(X)")
	for i := 0; i < 12; i++ {
		f.addWrites(t, fmt.Sprintf("base edge(c%d, c%d)", i, i+1), fmt.Sprintf("base edge(c%d, n%d)", i, i%8))
	}
	return f
}

// columnsSrc is a one-edge chain whose paths base may block and exc may
// link; its first grounding interns six atoms.
const columnsSrc = `module base {
  edge(c0, c1).
  block(c0, c2).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- path(X, Y), edge(Y, Z).
  -path(X, Y) :- block(X, Y).
}
module exc extends base {
  link(c0, c1).
  path(X, Y) :- link(X, Y).
}
`

// columnsFamily is columnsSrc with n rounds of three asserts over fresh
// constants: an edge extending the chain, a link in exc to a path base
// derived (its head gains exc as a second owner after later heads were
// registered), and a block of a path. The grounding grows quadratically
// in n while its first version is tiny, so the resident program's columns
// cross many chunk boundaries.
func columnsFamily(n int) func(*testing.T) *family {
	return func(t *testing.T) *family {
		f := &family{prog: mustProgram(t, columnsSrc), comps: []string{"base", "exc"}, small: true}
		f.addGoals(t, "path(c0, X)", "path(X, Y)", "-path(X, Y)", "path(c1, X), edge(X, Y)", "link(X, Y)", "path(X, c3)", "nosuch(X)")
		for k := 1; k <= n; k++ {
			f.addWrites(t, fmt.Sprintf("base edge(c%d, c%d)", k, k+1), fmt.Sprintf("exc link(c0, c%d)", k+1), fmt.Sprintf("base block(c1, c%d)", k+2))
		}
		next := 0
		f.write = func(*rand.Rand) (int, ast.Literal, bool) {
			w := f.pool[next%len(f.pool)]
			next++
			return w.comp, w.lit, false
		}
		return f
	}
}

// srcFamily is a family over a source text: its components, goals, and
// writes ("assert comp fact" or "retract comp fact") taken in order,
// cycling.
func srcFamily(src string, comps, goals, writes []string) func(*testing.T) *family {
	return func(t *testing.T) *family {
		f := &family{prog: mustProgram(t, src), comps: comps, small: true}
		f.addGoals(t, goals...)
		var pool []step
		for _, w := range writes {
			verb, rest, _ := strings.Cut(w, " ")
			comp, fact, _ := strings.Cut(rest, " ")
			pool = append(pool, step{comp: compIndex(t, f.prog, comp), lit: lit(t, fact), retract: verb == "retract"})
		}
		next := 0
		f.write = func(*rand.Rand) (int, ast.Literal, bool) {
			w := pool[next%len(pool)]
			next++
			return w.comp, w.lit, w.retract
		}
		return f
	}
}

// readKind is what a read asks.
type readKind uint8

const (
	rAnswers readKind = iota // AnswersCtx: the query text and the encoded rows
	rQuery                   // QueryCtx: the rows as BindingsJSON renders them
	rCut                     // cutAnswers: the goal's cut, below the route's line
	rProve                   // ProveCtx, and whether QueryCtx of the literal has a row
	rExplain                 // ProveExplainCtx, and whether it renders a tree
	rLeast                   // LeastModelCtx, also against a rebuild over the snapshot
	rModels                  // AssumptionFreeModelsCtx and StableModelsCtx
	rClosure                 // cutSlice against the closure over the version's live instances
	rMagic                   // a Ground.Goal engine's AF and stable answer projections
	rBatch                   // QueryBatchCtx of query reads across the components
	rWithin                  // the goal's cut against its magic-set slice
	rPrep                    // AnswersGoalCtx of the run's one Goal for the goal text, as rAnswers
)

var readNames = [...]string{"answers", "query", "cut", "prove", "explain", "least", "models", "closure", "magic", "batch", "within", "prepared"}

// target is which version a read reads.
type target uint8

const (
	tTip  target = iota // the current snapshot when the reader gets to it
	tPin                // a published snapshot the writer hands over, back from the newest
	tAsOf               // AsOfCtx of a version at or below the tip
)

type stepKind uint8

const (
	sWrite stepKind = iota
	sCompact
	sRecover
	sDrain
	sRead
	sCarry // ask, write where the asked component does not see, ask the child
)

// step is one step of a script. A write carries comp, lit and retract; a
// read its kind, target, comp and query or literal, and back picks a
// pinned version (back from the newest) or an AsOf version (modulo the
// tip). A prepared read carries its goal's text too. A batch carries its
// requests as query reads, and a carry its asked comp and query and its
// write as its one slot.
type step struct {
	kind    stepKind
	read    readKind
	at      target
	comp    int
	lit     ast.Literal
	retract bool
	q       ast.Query
	text    string
	back    int
	slots   []step
}

func (s step) String() string {
	switch s.kind {
	case sWrite:
		verb := "assert"
		if s.retract {
			verb = "retract"
		}
		return fmt.Sprintf("%s %d %s", verb, s.comp, s.lit)
	case sCompact:
		return "compact"
	case sRecover:
		return "close and recover"
	case sCarry:
		return fmt.Sprintf("carry %s past %s in %d", s.q, s.slots[0], s.comp)
	}
	what := s.q.String()
	if s.read == rPrep {
		what = fmt.Sprintf("%q %#v", s.text, s.q)
	} else if s.read == rProve || s.read == rExplain {
		what = s.lit.String()
	} else if s.read == rBatch {
		what = fmt.Sprint(s.slots)
	}
	return fmt.Sprintf("%s %s [%d %d] %s", readNames[s.read], []string{"tip", "pin", "asof"}[s.at], s.back, s.comp, what)
}

// builder writes a script. The rand.Source is the only input besides the
// family, so a fuzzer can drive scripts from bytes by supplying one.
type builder struct {
	rng      *rand.Rand
	f        *family
	steps    []step
	hot      []int // when set, goals are drawn from these
	variants bool  // draw renamed and reordered goals too
	k        int   // the case's parameter
}

func (b *builder) comp() int {
	i, _ := b.f.prog.ComponentIndex(b.f.comps[b.rng.Intn(len(b.f.comps))])
	return i
}

func (b *builder) goal() ast.Query {
	var q ast.Query
	if len(b.hot) > 0 {
		q = b.f.goals[b.hot[b.rng.Intn(len(b.hot))]]
	} else {
		q = b.f.goals[b.rng.Intn(len(b.f.goals))]
	}
	if b.variants {
		switch b.rng.Intn(6) {
		case 0:
			q = renamed(q)
		case 1:
			q = reordered(q)
		case 2:
			q = reordered(renamed(q))
		}
	}
	return q
}

func (b *builder) literal() ast.Literal {
	return ast.Literal{Atom: b.f.atoms[b.rng.Intn(len(b.f.atoms))], Neg: b.rng.Intn(2) == 0}
}

func (b *builder) write() {
	c, l, retract := b.f.write(b.rng)
	b.steps = append(b.steps, step{kind: sWrite, comp: c, lit: l, retract: retract})
}

// carry adds a write between two asks of a goal, on the tip and on the
// child, in a component that does not see the written one; when sixteen
// draws find no such write, a plain write. The write asserts: a retract
// of an absent fact, which publishes nothing, is the draw's common case.
func (b *builder) carry() {
	p := b.f.prog
	for try := 0; try < 16; try++ {
		c, l, _ := b.f.write(b.rng)
		var blind []int
		for _, name := range b.f.comps {
			if i, _ := p.ComponentIndex(name); i != c && !p.Less(i, c) {
				blind = append(blind, i)
			}
		}
		if len(blind) > 0 {
			w := step{kind: sWrite, comp: c, lit: l}
			b.steps = append(b.steps, step{kind: sCarry, comp: blind[b.rng.Intn(len(blind))], q: b.goal(), slots: []step{w}})
			return
		}
	}
	b.write()
}

func (b *builder) compact() { b.steps = append(b.steps, step{kind: sCompact}) }
func (b *builder) recover() { b.steps = append(b.steps, step{kind: sRecover}) }
func (b *builder) drain()   { b.steps = append(b.steps, step{kind: sDrain}) }

// read adds one read of the kind on a version of the target, in a random
// component, of a random goal or literal.
func (b *builder) read(k readKind, at target) {
	b.add(k, at, b.comp(), b.rng.Intn(1<<20))
}

// every adds a read of the kind on the target in every component.
func (b *builder) every(k readKind, at target, back int) {
	for _, name := range b.f.comps {
		i, _ := b.f.prog.ComponentIndex(name)
		b.add(k, at, i, back)
	}
}

func (b *builder) add(k readKind, at target, comp, back int) {
	if (k == rModels || k == rMagic) && !b.f.small {
		return
	}
	s := step{kind: sRead, read: k, at: at, comp: comp, back: back}
	switch {
	case k == rProve || k == rExplain:
		s.lit = b.literal()
	case k == rPrep:
		i := b.rng.Intn(len(b.f.goals))
		s.q = b.f.goals[i]
		if i < len(b.f.texts) {
			s.text = b.f.texts[i]
		}
	case k == rBatch:
		// Every component at least twice, in a random order, each slot
		// drawing its own goal: a slot answered for another shows.
		perm := b.rng.Perm(len(b.f.comps))
		for i, n := 0, 2*len(perm)+b.rng.Intn(4); i < n; i++ {
			c, _ := b.f.prog.ComponentIndex(b.f.comps[perm[i%len(perm)]])
			s.slots = append(s.slots, step{kind: sRead, read: rQuery, comp: c, q: b.goal()})
		}
	case k != rLeast && k != rModels:
		s.q = b.goal()
	}
	b.steps = append(b.steps, s)
}

// sweep asks every goal, in a random order, in one component on the tip.
func (b *builder) sweep(k readKind) {
	c := b.comp()
	for _, g := range b.rng.Perm(len(b.f.goals)) {
		b.steps = append(b.steps, step{kind: sRead, read: k, at: tTip, comp: c, q: b.f.goals[g]})
	}
}

// mixed adds n reads drawn from kinds, on the tip, except one in pin
// which is on a pinned version (pin 0: never).
func (b *builder) mixed(n, pin int, kinds ...readKind) {
	for i := 0; i < n; i++ {
		at := tTip
		if pin > 0 && b.rng.Intn(pin) == 0 {
			at = tPin
		}
		b.read(kinds[b.rng.Intn(len(kinds))], at)
	}
}

// engineConfig is one engine configuration a script runs on.
type engineConfig struct {
	name       string
	cfg        Config
	durable    bool
	checkpoint int // a durable engine's checkpoint cadence, 16 if 0
}

var (
	cfgFull     = engineConfig{name: "full"}
	cfgGoal     = engineConfig{name: "goal", cfg: Config{GoalDirected: true}}
	cfgModeFull = engineConfig{name: "goal-modefull", cfg: Config{GoalDirected: true, Ground: ground.Options{Mode: ground.ModeFull}}}
	cfgEvery    = engineConfig{name: "compact-every", cfg: Config{CompactEvery: 3}}
	cfgRatio    = engineConfig{name: "compact-ratio", cfg: Config{CompactRatio: 0.01}}
	cfgDurable  = engineConfig{name: "durable", durable: true}
	// cfgDurableCompact checkpoints every record and compacts every two.
	cfgDurableCompact = engineConfig{name: "durable-compact", durable: true, checkpoint: 1, cfg: Config{CompactEvery: 2}}
)

// scriptCase is one script of a row: its subtest name ("" runs it in the
// test itself), family, seed and parameter k.
type scriptCase struct {
	name   string
	family func(*testing.T) *family
	seed   int64
	k      int
}

// row is one differential: its cases, the script shape, the
// configurations each script runs on (rotate: one per case, in turn), the
// readers racing the writer, and the obs counters that must have moved
// over the row — the engine's, or the harness's own (tally) — each by at
// least one, or by exactly N when written "name=N". With perConfig they
// must move so on each configuration: the cases then run one at a time,
// so that the counters a configuration moves are its own.
type row struct {
	group     string // a subtest the cases run under
	cases     func(short bool) []scriptCase
	configs   []engineConfig
	rotate    bool
	readers   int
	script    func(b *builder)
	want      []string
	perConfig bool
}

// runRow runs every case of the row on its configurations, each case in a
// subtest, parallel unless the row counts per configuration, and checks
// the row's counters once they all finish.
func runRow(t *testing.T, r *row) {
	before := obs.Default().Snap()
	byConfig := map[string]obs.Snap{}
	t.Cleanup(func() {
		check := func(label string, d obs.Snap) {
			for _, w := range r.want {
				name, exact, isExact := strings.Cut(w, "=")
				if isExact && fmt.Sprint(d[name]) != exact && !t.Failed() {
					t.Errorf("%s%s moved by %d, want %s", label, name, d[name], exact)
				} else if !isExact && d[name] == 0 && !t.Failed() {
					t.Errorf("%s%s did not move: the path went untested", label, name)
				}
			}
		}
		if !r.perConfig {
			check("", obs.Default().Snap().Diff(before))
			return
		}
		for _, c := range r.configs {
			check(c.name+": ", byConfig[c.name])
		}
	})
	// The cases over one program share its oracle while the row runs: the
	// configurations and k variants of a seed read many of the same versions.
	var mu sync.Mutex
	oracles := map[string]*oracleCache{}
	runCase := func(t *testing.T, i int, sc scriptCase) {
		f := sc.family(t)
		b := &builder{rng: rand.New(rand.NewSource(sc.seed)), f: f, k: sc.k}
		r.script(b)
		mu.Lock()
		oc := oracles[f.prog.String()]
		if oc == nil {
			oc = &oracleCache{prog: f.prog, byLog: map[string]*oracleVersion{}}
			oracles[f.prog.String()] = oc
		}
		mu.Unlock()
		configs := r.configs
		if r.rotate {
			configs = configs[i%len(configs) : i%len(configs)+1]
		}
		for _, c := range configs {
			at := obs.Default().Snap()
			(&harness{t: t, f: f, c: c, readers: r.readers, oc: oc, seed: sc.seed}).run(b.steps, nil)
			if r.perConfig {
				acc := byConfig[c.name]
				if acc == nil {
					acc = obs.Snap{}
					byConfig[c.name] = acc
				}
				for k, v := range obs.Default().Snap().Diff(at) {
					acc[k] += v
				}
			}
		}
	}
	cases := r.cases(testing.Short())
	run := func(t *testing.T) {
		for i, sc := range cases {
			if sc.name == "" {
				runCase(t, i, sc)
				continue
			}
			t.Run(sc.name, func(t *testing.T) {
				if !r.perConfig {
					t.Parallel()
				}
				runCase(t, i, sc)
			})
		}
	}
	if r.group != "" {
		t.Run(r.group, run)
	} else {
		run(t)
	}
}

// generation is one engine of a run: the first, or one recovered after a
// crash. logs holds, per version it published, the fact log whose
// effective program that version answers for; prep the run's prepared
// goals, which every generation shares.
type generation struct {
	id   int
	eng  *Engine
	dir  string // a durable engine's log directory
	logs map[uint64][]factEvent
	prep *goalTable
}

// goalTable holds a run's prepared goals: one Goal per distinct goal
// text, prepared by a tenant's map (Tenant.Goal) when a reader first asks
// it, and one per goal built by hand, which has no text, by its Go syntax.
// Every version and every reader of the run reads the same Goal, a
// recovered generation's too.
type goalTable struct {
	t     *Tenant
	mu    sync.Mutex
	built map[string]*Goal
}

func (gt *goalTable) goal(st step) (*Goal, error) {
	if st.text != "" {
		return gt.t.Goal(st.text)
	}
	key := fmt.Sprintf("%#v", st.q)
	gt.mu.Lock()
	defer gt.mu.Unlock()
	g := gt.built[key]
	if g == nil {
		g = new(Goal)
		*g = newGoal(st.q, gt.t.eng.cfg.GoalDirected)
		gt.built[key] = g
	}
	return g, nil
}

// job is a read handed to a reader, with the snapshot of a pinned read.
type job struct {
	s    step
	idx  int // position in the script
	gen  *generation
	snap *Snapshot
}

// record is what a reader saw.
type record struct {
	job
	version uint64
	got     string
	skip    bool // a cut on a goal-directed engine, or an evicted AsOf version
}

// harness runs scripts of one family on one configuration.
type harness struct {
	t       *testing.T
	f       *family
	c       engineConfig
	readers int
	oc      *oracleCache
	seed    int64
}

func (h *harness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s seed %d: %s", h.c.name, h.seed, fmt.Sprintf(format, args...))
}

// run runs the steps, from a fresh engine or from the generation given,
// then checks every read against the oracle. It returns the last
// generation, its engine closed.
func (h *harness) run(steps []step, start *generation) *generation {
	ctx := context.Background()
	g := start
	if g == nil {
		var opts []Option
		dir := ""
		if h.c.durable {
			dir = h.t.TempDir()
			opts = []Option{WithDurability(dir), WithDurableName("harness"), WithCheckpointEvery(cmp.Or(h.c.checkpoint, 16)), WithSync(wal.SyncAlways)}
		}
		eng, err := NewEngineCtx(ctx, h.f.prog, h.c.cfg, opts...)
		if err != nil {
			h.fatalf("%v", err)
		}
		g = &generation{eng: eng, dir: dir, logs: map[uint64][]factEvent{0: nil},
			prep: &goalTable{t: &Tenant{name: "harness", eng: eng}, built: map[string]*Goal{}}}
	}
	log := g.logs[g.eng.Current().Version()]
	published, pubGen := []*Snapshot{g.eng.Current()}, []*generation{g}
	publish := func(s *Snapshot) {
		if s != published[len(published)-1] {
			published, pubGen = append(published, s), append(pubGen, g)
		}
		g.logs[s.Version()] = log[:len(log):len(log)]
		h.checkIndex(g.eng)
	}

	jobs := make(chan job, h.readers)
	var pending, readers sync.WaitGroup
	out := make([][]record, h.readers)
	for w := 0; w < h.readers; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for j := range jobs {
				out[w] = append(out[w], doRead(ctx, j))
				pending.Done()
			}
		}(w)
	}
	stop := sync.OnceFunc(func() { close(jobs); readers.Wait() })
	defer stop()
	var carried []record // the writer's own reads, in carry steps
	for i, st := range steps {
		fail := func(err error) { stop(); h.fatalf("step %d (%s): %v", i, st, err) }
		write := func(w step) *Snapshot {
			apply := g.eng.Update
			if w.retract {
				apply = g.eng.Retract
			}
			s, err := apply(ctx, h.f.prog.Components[w.comp].Name, []ast.Literal{w.lit})
			if err != nil {
				fail(err)
			}
			log = append(log, factEvent{comp: w.comp, lit: w.lit, retract: w.retract})
			publish(s)
			return s
		}
		switch st.kind {
		case sRead:
			j := job{s: st, idx: i, gen: g}
			if st.at == tPin {
				k := len(published) - 1 - st.back%len(published)
				j.snap, j.gen = published[k], pubGen[k]
			}
			pending.Add(1)
			jobs <- j
		case sDrain:
			pending.Wait()
		case sWrite:
			write(st)
		case sCarry:
			// The goal is asked of the component's model on the tip, then
			// through AnswersCtx on the child. When the write left the
			// component's state shared, the child reads the same model,
			// which must answer with the very answer set it kept. No reader
			// runs meanwhile, so none refills the model's memo in between.
			pending.Wait()
			comp, read := h.f.prog.Components[st.comp].Name, step{kind: sRead, read: rAnswers, comp: st.comp, q: st.q}
			parent := g.eng.Current()
			m, err := parent.LeastModelCtx(ctx, comp)
			if err != nil {
				fail(err)
			}
			was := m.Answers(st.q)
			child := write(st.slots[0])
			a, err := child.AnswersCtx(ctx, comp, st.q)
			if err != nil {
				fail(err)
			}
			if child != parent && child.comp(st.comp) == parent.comp(st.comp) {
				if a != was {
					fail(errors.New("the child shares the component's model but answered afresh"))
				}
				tally("harness.carry.same")
			}
			got := func(s *Snapshot, a *Answers) record {
				return record{job: job{s: read, idx: i, gen: g}, version: s.Version(), got: responseJSON(a.Query(), a.JSON())}
			}
			carried = append(carried, got(parent, was), got(child, a))
		case sCompact:
			dead := g.eng.Current().NumDeadRules()
			s, err := g.eng.Compact(ctx)
			if err != nil {
				fail(err)
			}
			if n := s.NumDeadRules(); n != 0 {
				fail(fmt.Errorf("%d dead rules survived compaction", n))
			}
			if dead > 0 {
				tally("harness.compact.drained")
			}
			publish(s)
		case sRecover:
			pending.Wait()
			if err := g.eng.Close(); err != nil {
				fail(err)
			}
			var err error
			if g, err = crashAt(ctx, g, h.c, -1); err != nil {
				fail(err)
			}
			publish(g.eng.Current())
		}
	}
	stop()
	// No version past the tip is known, on a recovered engine too.
	if _, err := g.eng.AsOfCtx(ctx, g.eng.Current().Version()+1); !errors.Is(err, ErrVersionUnknown) {
		h.fatalf("AsOf past the tip v%d: got %v, want ErrVersionUnknown", g.eng.Current().Version(), err)
	}
	if h.c.durable {
		if err := g.eng.Close(); err != nil {
			h.fatalf("%v", err)
		}
		if _, err := wal.VerifyDir(g.dir); err != nil {
			h.fatalf("verify after the run: %v", err)
		}
	}
	recs := carried
	for _, rs := range out {
		recs = append(recs, rs...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].idx < recs[j].idx })
	for _, rec := range recs {
		if rec.skip {
			continue
		}
		evs, ok := rec.gen.logs[rec.version]
		if !ok {
			h.fatalf("step %d read v%d, which generation %d never published", rec.idx, rec.version, rec.gen.id)
		}
		want, err := h.oc.expect(ctx, evs, rec.s)
		if err != nil {
			h.fatalf("oracle: %v", err)
		}
		if rec.got != want {
			hist := make([]string, len(evs))
			for i, e := range evs {
				hist[i] = step{kind: sWrite, comp: e.comp, lit: e.lit, retract: e.retract}.String()
			}
			h.fatalf("step %d (%s) on v%d after %d writes %v:\n got: %s\nwant: %s",
				rec.idx, rec.s, rec.version, len(evs), hist, rec.got, want)
		}
	}
	return g
}

// checkIndex fails unless the engine's fact index renders the tip's
// effective program byte for byte as a fresh replay of the tip's log does.
func (h *harness) checkIndex(e *Engine) {
	h.t.Helper()
	e.writeMu.Lock()
	got, err := e.hist.program()
	tip := e.Current()
	e.writeMu.Unlock()
	want, werr := effectiveProgramOracle(e.src, tip.log)
	if err = errors.Join(err, werr); err != nil {
		h.fatalf("v%d: effective program: %v", tip.Version(), err)
	}
	if g, w := got.String(), want.String(); g != w {
		h.fatalf("v%d: the index renders\n%s\na replay of the %d-event log renders\n%s", tip.Version(), g, len(tip.log), w)
	}
	tally("harness.index.checked")
}

// crashAt truncates a copy of the closed generation's log at cut (-1:
// none), as a SIGKILL mid-append leaves it, and recovers an engine from
// the copy. The
// recovered version must be the number of records that survive the cut;
// the new generation answers for the old one's logs up to it.
func crashAt(ctx context.Context, g *generation, c engineConfig, cut int64) (*generation, error) {
	dir, err := os.MkdirTemp(filepath.Dir(g.dir), "crash")
	if err != nil {
		return nil, err
	}
	if err := copyDirTo(g.dir, dir); err != nil {
		return nil, err
	}
	if cut >= 0 {
		if err := os.Truncate(filepath.Join(dir, wal.LogName), cut); err != nil {
			return nil, err
		}
	}
	dec, err := wal.ReadAll(dir, wal.Genesis("harness"), false)
	if err != nil {
		return nil, err
	}
	eng, err := Recover(ctx, dir, c.cfg, WithSync(wal.SyncAlways), WithCheckpointEvery(cmp.Or(c.checkpoint, 16)))
	if err != nil {
		return nil, fmt.Errorf("recover after a cut at %d (%d surviving records): %w", cut, len(dec.Records), err)
	}
	tip := eng.Current().Version()
	if tip != uint64(len(dec.Records)) {
		return nil, fmt.Errorf("recovered v%d after a cut at %d, but %d records survive", tip, cut, len(dec.Records))
	}
	ng := &generation{id: g.id + 1, eng: eng, dir: dir, logs: map[uint64][]factEvent{}, prep: g.prep}
	for v, l := range g.logs {
		if v <= tip {
			ng.logs[v] = l
		}
	}
	return ng, nil
}

// copyDirTo copies the files of a durability directory.
func copyDirTo(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// doRead runs one read on the version its target names and renders what
// it saw.
func doRead(ctx context.Context, j job) record {
	rec, g, s := record{job: j}, j.gen, j.snap
	switch j.s.at {
	case tTip:
		s = g.eng.Current()
	case tAsOf:
		tip := g.eng.Current().Version()
		v := uint64(j.s.back) % (tip + 1)
		var err error
		if s, err = g.eng.AsOfCtx(ctx, v); err != nil || s.Version() != v {
			// Only a compaction on a memory-only engine evicts versions.
			rec.skip = errors.Is(err, ErrVersionEvicted) && g.dir == ""
			rec.version, rec.got = v, fmt.Sprintf("AsOf(%d): %v (err %v)", v, s, err)
			return rec
		}
		tally("harness.read.asof")
	}
	rec.version = s.Version()
	if j.s.read == rCut && s.eng.cfg.GoalDirected {
		// A cut on a goal-directed engine would decide the entry's route
		// for the query path: the cut is read on the other configurations,
		// and goal-directed ones take it through AnswersCtx below the line.
		rec.skip = true
		return rec
	}
	comp := s.gp.Src.Components[j.s.comp].Name
	if j.s.read == rPrep {
		g, err := j.gen.prep.goal(j.s)
		var a *Answers
		if err == nil {
			a, err = s.AnswersGoalCtx(ctx, comp, g)
		}
		if err != nil {
			rec.got = "error: " + err.Error()
			return rec
		}
		tally("harness.read.prepared")
		rec.got = responseJSON(a.Query(), a.JSON())
		return rec
	}
	rec.got = readOn(ctx, s, comp, j.s)
	return rec
}

// readOn renders one read on one snapshot, in the form expect renders the
// oracle's answer.
func readOn(ctx context.Context, s *Snapshot, comp string, st step) string {
	fail := func(err error) string { return "error: " + err.Error() }
	switch st.read {
	case rAnswers:
		a, err := s.AnswersCtx(ctx, comp, st.q)
		if err != nil {
			return fail(err)
		}
		return responseJSON(a.Query(), a.JSON())
	case rQuery:
		rows, err := s.QueryCtx(ctx, comp, st.q)
		if err != nil {
			return fail(err)
		}
		b, _ := BindingsJSON(st.q, rows)
		return string(b)
	case rBatch:
		reqs := make([]QueryRequest, len(st.slots))
		for i, sl := range st.slots {
			reqs[i] = QueryRequest{Comp: s.gp.Src.Components[sl.comp].Name, Query: sl.q}
		}
		out := make([]string, len(reqs))
		for i, res := range s.QueryBatchCtx(ctx, reqs) {
			b, err := BindingsJSON(reqs[i].Query, res.Bindings)
			if out[i] = string(b); res.Err != nil || err != nil {
				out[i] = fail(errors.Join(res.Err, err))
			}
		}
		return strings.Join(out, "\n")
	case rCut:
		a, err := s.cutAnswers(ctx, comp, st.q)
		if err != nil {
			return fail(err)
		}
		tally("harness.read.cut")
		return responseJSON(a.Query(), a.JSON())
	case rProve:
		ok, err := s.ProveCtx(ctx, comp, st.lit)
		rows, qerr := s.QueryCtx(ctx, comp, ast.Query{Body: []ast.Literal{st.lit}})
		if err = errors.Join(err, qerr); err != nil {
			return fail(err)
		}
		return fmt.Sprintf("holds %v, witness %v", ok, len(rows) > 0) // a row
	case rExplain:
		tree, ok, err := s.ProveExplainCtx(ctx, comp, st.lit)
		if err != nil {
			return fail(err)
		}
		return fmt.Sprintf("holds %v, witness %v", ok, tree != "") // a tree
	case rLeast:
		m, err := s.LeastModelCtx(ctx, comp)
		if err != nil {
			return fail(err)
		}
		if same, rebuilt, err := s.SameAsRebuild(comp, m); err != nil || !same {
			return fmt.Sprintf("memoised %s, rebuilt over the snapshot %s (err %v)", m, rebuilt, err)
		}
		return m.String()
	case rModels:
		af, err := s.AssumptionFreeModelsCtx(ctx, comp, stable.Options{})
		if err != nil {
			return fail(err)
		}
		st, err := s.StableModelsCtx(ctx, comp, stable.Options{})
		if err != nil {
			return fail(err)
		}
		return "af " + modelSet(af) + "; stable " + modelSet(st)
	case rClosure:
		cut, err := s.cutSlice(ctx, st.q.Body)
		if err != nil {
			return fail(err)
		}
		if int(s.index.heads.Load()) > s.rules.Len() {
			tally("harness.closure.past-prefix")
		}
		if err := occMismatch(s, st.q.Body); err != nil {
			return fail(err)
		}
		diff, _ := sameSet(renderRules(cut, cut.Rules, nil), closureOracle(s, st.q.Body))
		return diff
	case rMagic:
		// An engine grounded with the magic-set slice of the goal over the
		// version's effective program must keep every answer the model
		// families give the goal.
		eff, opts, err := magicOf(s, st.q)
		if err != nil {
			return fail(err)
		}
		sliced, err := NewEngineCtx(ctx, eff, Config{Ground: opts})
		if err != nil {
			return fail(err)
		}
		return projections(ctx, sliced, comp, st.q)
	case rWithin:
		// The cut keeps only instances the magic-set slice of the goal
		// keeps: both close the goal's demand under bodies, complements and
		// competitors, and the cut does so on instances, never coarser than
		// the predicate-level adornment.
		eff, opts, err := magicOf(s, st.q)
		if err != nil {
			return fail(err)
		}
		magic, err := ground.GroundCtx(ctx, eff, opts)
		if err != nil {
			return fail(err)
		}
		cut, err := s.cutSlice(ctx, st.q.Body)
		if err != nil {
			return fail(err)
		}
		want, extra := renderRules(magic, magic.Rules, nil), []string{}
		for r := range renderRules(cut, cut.Rules, nil) {
			if !want[r] {
				extra = append(extra, r)
			}
		}
		sort.Strings(extra)
		tally("harness.read.within")
		return strings.Join(extra, "\n")
	}
	return ""
}

// magicOf returns the snapshot's effective program and grounder options
// that cut it to the magic-set slice of the query's goal.
func magicOf(s *Snapshot, q ast.Query) (*ast.OrderedProgram, ground.Options, error) {
	opts := ground.DefaultOptions()
	opts.Goal = q.Body
	eff, err := s.EffectiveProgram()
	return eff, opts, err
}

// tally counts something the harness saw, for the rows' want lists.
func tally(name string) { obs.Default().Counter(name).Inc() }

// responseJSON is the object BindingsJSON renders, assembled from a query
// text and an answer set's encoding.
func responseJSON(query string, answers []byte) string {
	buf := append([]byte("{\n  \"query\": "), AppendJSONString(nil, query)...)
	buf = append(buf, ",\n  \"answers\": "...)
	buf = append(buf, answers...)
	return string(append(buf, "\n}"...))
}

func modelSet(ms []*Model) string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	sort.Strings(out)
	return strings.Join(out, " | ")
}

// oracleVersion is the oracle at one version: the effective program
// grounded afresh, and per component its naive least model and, on small
// bases, a fresh engine's AF and stable models.
type oracleVersion struct {
	eff   *ast.OrderedProgram
	g     *ground.Program
	full  bool // g, and the fresh engine's grounding, are exhaustive
	mu    sync.Mutex
	least map[int]*oracleModel
	fresh *Engine
	want  sync.Map // a read's rendering -> the oracle's answer
}

// oracleCache holds a program's oracle per effective fact log. smart is
// set once a version's exhaustive grounding exceeds oracleFullCap.
type oracleCache struct {
	prog  *ast.OrderedProgram
	mu    sync.Mutex
	byLog map[string]*oracleVersion
	smart bool
}

// logKey keys a log by its events' Go syntax, which shows each term's
// kind: Sym "1" and Int 1, or Sym "g(x)" and the compound g(x), render
// alike but key apart.
func logKey(evs []factEvent) string {
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&b, "%d %v %#v;", e.comp, e.retract, e.lit)
	}
	return b.String()
}

// oracleFullCap is the most instances the oracle grounds a family's
// versions exhaustively (ground.ModeFull) with: the smart grounder is the
// one under test, and the exhaustive one shares none of its competitor
// pass. A family whose version exceeds the cap is grounded smart from then
// on (smart ≡ full is pinned in internal/ground).
const oracleFullCap = 1 << 14

// version returns the oracle of the log's effective program: the source
// with the log's facts asserted and retracted (the one shadow-program
// builder, effectiveProgramOracle), grounded afresh.
func (oc *oracleCache) version(ctx context.Context, evs []factEvent) (*oracleVersion, error) {
	key := logKey(evs)
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if o := oc.byLog[key]; o != nil {
		return o, nil
	}
	eff, err := effectiveProgramOracle(oc.prog, evs)
	if err != nil {
		return nil, err
	}
	opts := ground.DefaultOptions()
	if !oc.smart {
		opts.Mode, opts.MaxInstances = ground.ModeFull, oracleFullCap
	}
	g, err := ground.GroundCtx(ctx, eff, opts)
	if budget := (*ground.ErrBudget)(nil); errors.As(err, &budget) && !oc.smart {
		oc.smart = true
		g, err = ground.GroundCtx(ctx, eff, ground.DefaultOptions())
	}
	if err != nil {
		return nil, err
	}
	tally(map[bool]string{false: "harness.oracle.full", true: "harness.oracle.smart"}[oc.smart])
	o := &oracleVersion{eff: eff, g: g, full: !oc.smart, least: map[int]*oracleModel{}}
	oc.byLog[key] = o
	return o, nil
}

// oracleModel is a component's naive least model, with its literals in
// canonical order.
type oracleModel struct {
	in   *interp.Interp
	lits []ast.Literal
}

func (o *oracleVersion) model(ctx context.Context, comp int) (*oracleModel, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if m := o.least[comp]; m != nil {
		return m, nil
	}
	in, err := naive.LeastModelNaiveCtx(ctx, eval.NewView(o.g, comp))
	if err != nil {
		return nil, err
	}
	m := &oracleModel{in, in.Literals()}
	o.least[comp] = m
	return m, nil
}

// expect renders the oracle's answer to a read at the log's version.
func (oc *oracleCache) expect(ctx context.Context, evs []factEvent, st step) (string, error) {
	o, err := oc.version(ctx, evs)
	if err != nil {
		return "", err
	}
	key := fmt.Sprintf("%d %d %#v %#v %#v", st.read, st.comp, st.q, st.lit, st.slots) // kind-exact, as logKey
	if w, ok := o.want.Load(key); ok {
		return w.(string), nil
	}
	w, err := o.expect(ctx, st)
	if err == nil {
		o.want.Store(key, w)
	}
	return w, err
}

func (o *oracleVersion) expect(ctx context.Context, st step) (string, error) {
	var err error
	if st.read == rClosure || st.read == rWithin {
		return "", nil // computed over the snapshot itself
	}
	if st.read == rModels || st.read == rMagic {
		o.mu.Lock()
		if o.fresh == nil {
			cfg := Config{}
			if o.full {
				cfg.Ground.Mode = ground.ModeFull
			}
			o.fresh, err = NewEngineCtx(ctx, o.eff, cfg)
		}
		fresh := o.fresh
		o.mu.Unlock()
		if err != nil {
			return "", err
		}
		name := o.eff.Components[st.comp].Name
		if st.read == rMagic {
			return projections(ctx, fresh, name, st.q), nil
		}
		return readOn(ctx, fresh.Current(), name, st), nil
	}
	if st.read == rBatch {
		out := make([]string, len(st.slots))
		for i, sl := range st.slots {
			w, err := o.expect(ctx, sl)
			if err != nil {
				return "", err
			}
			out[i] = w
		}
		return strings.Join(out, "\n"), nil
	}
	m, err := o.model(ctx, st.comp)
	if err != nil {
		return "", err
	}
	holds := func(l ast.Literal) bool {
		id, ok := o.g.Tab.Lookup(l.Atom)
		return ok && m.in.HasLit(interp.MkLit(id, l.Neg))
	}
	switch st.read {
	case rAnswers, rQuery, rCut, rPrep:
		b, err := BindingsJSON(st.q, queryScanOracle(m.lits, st.q))
		return string(b), err
	case rProve, rExplain:
		h := holds(st.lit)
		return fmt.Sprintf("holds %v, witness %v", h, h), nil
	case rLeast:
		return m.in.String(), nil
	}
	return "", fmt.Errorf("no oracle for read %d", st.read)
}

// projections renders the AF and stable model families of the component
// as the sets of their models' answer sets for the query: the part of an
// enumeration a goal can observe.
func projections(ctx context.Context, e *Engine, comp string, q ast.Query) string {
	var out []string
	for _, models := range []func(context.Context, string, stable.Options) ([]*Model, error){
		e.Current().AssumptionFreeModelsCtx, e.Current().StableModelsCtx,
	} {
		ms, err := models(ctx, comp, stable.Options{})
		if err != nil {
			return "error: " + err.Error()
		}
		set := map[string]bool{}
		for _, m := range ms {
			b, _ := BindingsJSON(q, queryScanOracle(m.Literals(), q))
			set[string(b)] = true
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, strings.Join(keys, " || "))
	}
	return strings.Join(out, "; ")
}
