// The head-indexed competitor pass pinned to the scan it replaced. The
// component walk the grounder used before — every rule of every relevant
// component per target, the open variables and the EDB joins worked out
// per head match instead of once per rule — survives here as
// competitorsScanOracle, and a grounding driven by it must emit the same
// Rules sequence, index by index, as the production pass.
package ground

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/oracle/gen"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/term"
)

// emitFn receives each fully bound instance the scan oracle enumerates:
// the compiled rule, its bindings live in the grounder's frame.
type emitFn func(comp int, c *crule) error

// competitorsScanOracle instantiates the competitors of one target by
// scanning: for every component that can overrule or defeat an owner of the
// target, every source rule and then every asserted fact, filtered by head
// predicate and sign, compiled, head-matched, and instantiated by
// scanEmitCompetitors.
func competitorsScanOracle(g *grounder, tg *target, emit emitFn) error {
	wantKey := g.preds[tg.pid].key
	wantNeg := !tg.neg
	tt := g.tab.TermTable()
	tgArgs := g.tab.Key(tg.atom)[1:]
	for ci := range g.src.Components {
		relevant := false
		for _, cs := range g.compsOf(tg) {
			if !g.src.Less(int(cs), ci) {
				relevant = true
				break
			}
		}
		if !relevant {
			continue
		}
		rules := append(append([]*ast.Rule(nil), g.src.Components[ci].Rules...), assertedFacts(g, ci)...)
		for k, r := range rules {
			if r.Head.Neg != wantNeg || r.Head.Atom.Key() != wantKey {
				continue
			}
			c := &crule{}
			var atoms []catom
			var pats []storage.Pat
			ord := int32(-1) // an asserted fact
			if k < len(g.src.Components[ci].Rules) {
				ord = g.cols.rt.start[ci] + int32(k)
			}
			g.compileRule(tt, r, ci, ord, c, &atoms, &pats)
			mark := g.f.Mark()
			var err error
			if g.f.Match(tt, c.atoms[0].args, tgArgs) {
				err = scanEmitCompetitors(g, ci, c, emit)
			}
			g.f.Undo(mark)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// assertedFacts lists the facts asserted in component ci and in effect,
// in assertion order.
func assertedFacts(g *grounder, ci int) []*ast.Rule {
	var rules []*ast.Rule
	for i := range g.facts {
		if f := &g.facts[i]; f.src < 0 && int(f.comp) == ci && !f.gone {
			rules = append(rules, ast.Fact(ast.Literal{Atom: ast.Atom{Pred: g.preds[f.pid].key.Name, Args: g.tab.TermTable().AppendTerms(nil, g.argsOf(f))}}))
		}
	}
	return rules
}

// scanEmitCompetitors joins the rule's positive EDB-with-CWA literals
// against the facts, then binds whatever slots the frame still leaves
// free over the whole universe, dropping instances a visible fact blocks
// through a negative literal.
func scanEmitCompetitors(g *grounder, comp int, c *crule, emit emitFn) error {
	var joinLits []storage.JoinLit
	for i, l := range c.r.Body {
		if !l.Neg && g.edbShape(c.atoms[i+1].pid) != nil {
			joinLits = append(joinLits, storage.JoinLit{Rel: g.st.Peek(encKey(l.Atom.Key(), false)), Args: c.atoms[i+1].args})
		}
	}
	tt := g.tab.TermTable()
	return storage.Join(g.f, joinLits, -1, !g.opts.NoJoinPlanner, func() error {
		var free []int32
		for i := range c.vars {
			if g.f.Vals[i] == term.None {
				free = append(free, int32(i))
			}
		}
		emit1 := func() error {
			for i, l := range c.r.Body {
				if !l.Neg || g.opts.NoEDBSimplify {
					continue
				}
				sh := &g.preds[c.atoms[i+1].pid].shape
				if !sh.onlyFactPos || !sh.topCWA || !sh.noOtherNeg {
					continue
				}
				a := &c.atoms[i+1]
				if args, ok := g.f.Lookup(tt, a.args, nil); ok && g.blockedByVisibleFact(a.sym, args, comp, sh) {
					return nil
				}
			}
			return emit(comp, c)
		}
		var rec func(i int) error
		rec = func(i int) error {
			if i == len(free) {
				return emit1()
			}
			for _, id := range g.uniIDs {
				mark := g.f.Mark()
				g.f.Bind(free[i], id)
				err := rec(i + 1)
				g.f.Undo(mark)
				if err != nil {
					return err
				}
			}
			return nil
		}
		return rec(0)
	})
}

// groundScanOracle is sequential smart grounding with the competitor pass
// replaced by the scan oracle; everything before it is the production code.
func groundScanOracle(t *testing.T, p *ast.OrderedProgram, opts Options) *Program {
	t.Helper()
	opts.fill()
	g, err := newGrounder(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.smartPrep(); err != nil {
		t.Fatal(err)
	}
	g.prepCompetitors()
	if err := g.fireable(); err != nil {
		t.Fatal(err)
	}
	for _, ti := range g.takeGrown() {
		if err := competitorsScanOracle(g, g.tgt(ti), g.instantiate); err != nil {
			t.Fatal(err)
		}
	}
	g.gp.Universe = g.uni
	g.gp.publish()
	return g.gp
}

// sameRuleSequence asserts two groundings agree instance by instance:
// component, head, body (interned ids — both runs intern in the same order
// or they would already differ), rendered rule and, when both grounded the
// same parse (sameSrc), the source rule pointer.
func sameRuleSequence(t *testing.T, name string, got, want *Program, sameSrc bool) {
	t.Helper()
	gotRules, wantRules := got.rules(), want.rules()
	if len(gotRules) != len(wantRules) {
		t.Fatalf("%s: %d instances, want %d", name, len(gotRules), len(wantRules))
	}
	for i := range wantRules {
		a, b := gotRules[i], wantRules[i]
		if a.Comp != b.Comp || a.Head != b.Head || !slices.Equal(a.Body, b.Body) || (sameSrc && a.Src != b.Src) ||
			got.RuleString(a) != want.RuleString(b) {
			t.Fatalf("%s: Rules[%d] = m%d %s (src %q), want m%d %s (src %q)", name, i,
				a.Comp, got.RuleString(a), a.Src, b.Comp, want.RuleString(b), b.Src)
		}
	}
	if got.Tab.Len() != want.Tab.Len() {
		t.Fatalf("%s: %d atoms, want %d", name, got.Tab.Len(), want.Tab.Len())
	}
}

// oracleCorpus is the ~200-seed differential population (the planner and
// eval suites' mix) plus the paper's figure programs from testdata.
func oracleCorpus(t *testing.T) (names []string, progs []*ast.OrderedProgram) {
	t.Helper()
	add := func(n string, p *ast.OrderedProgram) { names, progs = append(names, n), append(progs, p) }
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		add(fmt.Sprintf("ordered-%d", seed), gen.RandomOrdered(rng, 1+rng.Intn(4), gen.RandomConfig{
			Atoms: 3 + rng.Intn(5), Rules: 5 + rng.Intn(10), MaxBody: 3, NegHeads: true, NegBody: true,
		}))
	}
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed + 1_000))
		add(fmt.Sprintf("datalog-%d", seed), gen.RandomOrderedDatalog(rng, 1+rng.Intn(3), 2+rng.Intn(3)))
	}
	for depth := 1; depth <= 4; depth++ {
		for props := 1; props <= 4; props++ {
			for members := 1; members <= 3; members++ {
				add(fmt.Sprintf("inheritance-%d-%d-%d", depth, props, members), gen.Inheritance(depth, props, members))
			}
		}
	}
	files, err := filepath.Glob("../../testdata/*.olp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no figure programs under testdata: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		add(filepath.Base(f), res.Program)
	}
	return names, progs
}

// TestCompetitorIndexMatchesScan: on the seeded corpus and the figure
// programs, with and without the EDB/CWA simplification, the indexed pass
// emits the scan's Rules sequence.
func TestCompetitorIndexMatchesScan(t *testing.T) {
	names, progs := oracleCorpus(t)
	if len(progs) < 200 {
		t.Fatalf("oracle corpus too small: %d", len(progs))
	}
	for i, p := range progs {
		for _, noEDB := range []bool{false, true} {
			opts := DefaultOptions()
			opts.NoEDBSimplify = noEDB
			got, err := GroundCtx(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
			sameRuleSequence(t, fmt.Sprintf("%s (NoEDBSimplify=%v)", names[i], noEDB), got, groundScanOracle(t, p, opts), true)
		}
	}
}

// TestCompetitorIndexMatchesScanOnBenchmarkPrograms: the four shapes the
// serving benchmark grounds, at its full-profile sizes.
func TestCompetitorIndexMatchesScanOnBenchmarkPrograms(t *testing.T) {
	for _, sh := range benchShapes(t) {
		if testing.Short() && sh.name == "reads-full" {
			continue // 80k instances twice; the slices cover the same rules
		}
		opts := DefaultOptions()
		opts.Goal = sh.goal
		got, err := GroundCtx(context.Background(), sh.prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		sameRuleSequence(t, sh.name, got, groundScanOracle(t, sh.prog, opts), true)
	}
}

// growthProgram has what universe growth exercises: competitor rules with
// one and two open variables, a $dom-bound head variable, and an
// EDB-with-CWA predicate joined in a competitor body under a top
// closed-world component.
const growthProgram = `
module top { -r(X, Y). }
module base extends top {
  r(a, b). r(b, c). s(b, c). s(c, a).
  q(X) :- r(X, Y).
  t(X) :- q(X).
  u(X).
}
module exc extends base {
  -q(X) :- r(X, Y).
  -q(X) :- r(X, Y), s(Y, Z).
  -t(X) :- s(Y, Z), w(X).
  -u(X) :- w(X).
}
`

// TestGrowthUpdatesFindWhatTheScanFinds: after a seeded run of updates that
// grow the universe, rescanning every registered target with the oracle
// must emit nothing the incrementally maintained program does not already
// hold — the revisit of open-variable candidates, the delta joins and the
// grown targets' full passes together missed no competitor instance.
func TestGrowthUpdatesFindWhatTheScanFinds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := parse(t, growthProgram)
		gp, err := GroundCtx(context.Background(), p, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		comp, _ := p.ComponentIndex("base")
		fresh := 0
		for step := 0; step < 6; step++ {
			var batch []ast.Literal
			for n := 1 + rng.Intn(3); n > 0; n-- {
				arg := func() string {
					if rng.Intn(2) == 0 {
						fresh++
						return fmt.Sprintf("k%d", fresh)
					}
					return []string{"a", "b", "c"}[rng.Intn(3)]
				}
				switch rng.Intn(3) {
				case 0:
					batch = append(batch, goalLits(t, fmt.Sprintf("r(%s, %s)", arg(), arg()))...)
				case 1:
					batch = append(batch, goalLits(t, fmt.Sprintf("s(%s, %s)", arg(), arg()))...)
				default:
					batch = append(batch, goalLits(t, fmt.Sprintf("w(%s)", arg()))...)
				}
			}
			if _, err := gp.AssertFacts(context.Background(), comp, batch); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			g := gp.inc
			for pid := range g.preds {
				for _, sd := range g.preds[pid].sides {
					for _, ti := range sd.tgts {
						tg := g.tgt(ti)
						err := competitorsScanOracle(g, tg, func(comp int, c *crule) error {
							head, body, keep, err := g.buildInstance(c, nil)
							if err != nil || !keep {
								return err
							}
							if _, ok := g.findInstance(instanceHash(comp, head, body), comp, head, body); !ok {
								rule := Rule{Head: head, Body: body, Comp: int32(comp), Src: c.r}
								return fmt.Errorf("target %s: scan finds m%d %s, missing from the maintained program", g.tab.Atom(tg.atom), comp, gp.RuleString(rule))
							}
							return nil
						})
						if err != nil {
							t.Fatalf("seed %d step %d (batch %v): %v", seed, step, batch, err)
						}
					}
				}
			}
		}
		if fresh == 0 {
			t.Fatalf("seed %d never grew the universe", seed)
		}
	}
}
