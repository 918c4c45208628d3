// Ground-level differential tests of the incremental update path:
// AssertFacts and RetractFacts against a fresh grounding of the effective
// program, on seeded programs built around what universe growth touches —
// competitor rules with one and two open variables, $dom-bound head
// variables, EDB/CWA-shaped predicates joined in competitor bodies — and on
// batches that bring one, two or three fresh constants, alone or beside
// known ones. (internal/core has the engine-level differential; this one
// needs no snapshot, WAL or compaction to fail.)
package ground_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/parser"
)

// deltaProgram renders one seeded program. r/2 is plain IDB-by-facts (so
// its variables stay open in competitor bodies), e/2 is EDB under the top
// closed-world component (so competitor bodies join it), and the rule pool
// is sampled so every seed has a different mix.
func deltaProgram(rng *rand.Rand) string {
	consts := []string{"a", "b", "c", "d"}
	pick := func() string { return consts[rng.Intn(len(consts))] }
	var sb strings.Builder
	sb.WriteString("module top { -e(X, Y). }\nmodule base extends top {\n")
	for i := 0; i < 3+rng.Intn(3); i++ {
		fmt.Fprintf(&sb, "  r(%s, %s).\n", pick(), pick())
	}
	for i := 0; i < 2+rng.Intn(3); i++ {
		fmt.Fprintf(&sb, "  e(%s, %s).\n", pick(), pick())
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		fmt.Fprintf(&sb, "  s(%s, %s).\n", pick(), pick())
	}
	sb.WriteString("  q(X) :- r(X, Y).\n  t(X) :- e(X, Y).\n")
	if rng.Intn(2) == 0 {
		sb.WriteString("  u(X).\n") // $dom-bound head variable
	}
	if rng.Intn(2) == 0 {
		sb.WriteString("  v(X, Y) :- q(X).\n") // $dom-bound beside a body-bound one
	}
	sb.WriteString("}\nmodule exc extends base {\n")
	pool := []string{
		"-q(X) :- r(X, Y).",           // one open variable
		"-q(X) :- r(X, Y), s(Y, Z).",  // two open variables
		"-q(X) :- e(X, Y).",           // EDB join, nothing open
		"-t(X) :- e(X, Y), s(Y, Z).",  // EDB join and one open variable
		"-t(X) :- e(Y, X), -e(X, Y).", // negative literal on the EDB predicate
		"-u(X) :- w(X).",
		"-v(X, Y) :- w(Y).",
		"-q(X) :- w(Y), X != Y.", // open variable under a builtin
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for _, r := range pool[:3+rng.Intn(len(pool)-2)] {
		fmt.Fprintf(&sb, "  %s\n", r)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func mustProgram(t *testing.T, src string) *ast.OrderedProgram {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	return p
}

func mustLits(t *testing.T, texts ...string) []ast.Literal {
	t.Helper()
	out := make([]ast.Literal, len(texts))
	for i, s := range texts {
		l, err := parser.ParseLiteral(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = l
	}
	return out
}

// tenant models the caller's side of the update contract the engine keeps
// (internal/core filters every batch the same way): only facts that are not
// live are asserted, only live ones retracted, and a retract removes the
// fact wherever it came from.
type tenant struct {
	p    *ast.OrderedProgram
	comp int
	live map[string]ast.Literal // asserted and in effect, by text
	gone map[string]bool        // source facts retracted, by text
}

func newTenant(p *ast.OrderedProgram, comp int) *tenant {
	return &tenant{p: p, comp: comp, live: make(map[string]ast.Literal), gone: make(map[string]bool)}
}

func (tn *tenant) isLive(text string) bool {
	if _, ok := tn.live[text]; ok {
		return true
	}
	if tn.gone[text] {
		return false
	}
	for _, r := range tn.p.Components[tn.comp].Rules {
		if r.IsFact() && r.Head.String() == text {
			return true
		}
	}
	return false
}

// assertable drops the batch's duplicates and the facts already live.
func (tn *tenant) assertable(texts []string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, s := range texts {
		if !seen[s] && !tn.isLive(s) {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func (tn *tenant) asserted(texts []string, facts []ast.Literal) {
	for i, f := range facts {
		tn.live[texts[i]] = f
		delete(tn.gone, texts[i])
	}
}

// liveTexts lists every live ground fact of the component, sorted.
func (tn *tenant) liveTexts() []string {
	var out []string
	for _, r := range tn.p.Components[tn.comp].Rules {
		if r.IsFact() && r.Head.Atom.Ground() && !tn.gone[r.Head.String()] {
			out = append(out, r.Head.String())
		}
	}
	for k := range tn.live {
		if !tn.gone[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (tn *tenant) retracted(text string) {
	delete(tn.live, text)
	tn.gone[text] = true
}

// effective is the effective program a rebuild would parse: the source
// program minus its retracted facts plus the asserted ones.
func (tn *tenant) effective(t *testing.T) *ast.OrderedProgram {
	t.Helper()
	out := ast.NewOrderedProgram()
	for ci, c := range tn.p.Components {
		nc := &ast.Component{Name: c.Name}
		for _, r := range c.Rules {
			if ci == tn.comp && r.IsFact() && tn.gone[r.Head.String()] {
				continue
			}
			nc.AddRule(r)
		}
		if ci == tn.comp {
			keys := make([]string, 0, len(tn.live))
			for k := range tn.live {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				nc.AddRule(ast.Fact(tn.live[k]))
			}
		}
		if err := out.AddComponent(nc); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range tn.p.Edges {
		if err := out.AddEdge(e.Child, e.Parent); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	return out
}

// instanceSet renders a ground program's instances as a sorted
// {(comp, head, body)} set, skipping the indexes in dead.
func instanceSet(gp *ground.Program, dead map[int32]struct{}) []string {
	var out []string
	for i := range gp.Rules {
		if _, gone := dead[int32(i)]; gone {
			continue
		}
		out = append(out, fmt.Sprintf("m%d: %s", gp.Rules[i].Comp, gp.RuleString(&gp.Rules[i])))
	}
	sort.Strings(out)
	return out
}

func diffSets(got, want []string) string {
	in := func(set []string, s string) bool {
		i := sort.SearchStrings(set, s)
		return i < len(set) && set[i] == s
	}
	var sb strings.Builder
	for _, s := range want {
		if !in(got, s) {
			fmt.Fprintf(&sb, "  missing %s\n", s)
		}
	}
	for _, s := range got {
		if !in(want, s) {
			fmt.Fprintf(&sb, "  extra   %s\n", s)
		}
	}
	return sb.String()
}

// leastModels returns the canonical least model of every component of gp
// over its live instances.
func leastModels(t *testing.T, gp *ground.Program, dead map[int32]struct{}) []string {
	t.Helper()
	out := make([]string, gp.NumComponents())
	for c := range out {
		m, err := eval.NewViewOf(gp, c, gp.Rules, dead).LeastModelCtx(context.Background())
		if err != nil {
			t.Fatalf("comp %d: %v", c, err)
		}
		out[c] = m.String()
	}
	return out
}

// batchGen draws update batches over the known constants and a supply of
// fresh ones, on the predicates the seeded programs are sensitive to.
type batchGen struct {
	rng   *rand.Rand
	known []string
	next  int
}

func (b *batchGen) fresh() string {
	b.next++
	k := fmt.Sprintf("k%d", b.next)
	b.known = append(b.known, k)
	return k
}

func (b *batchGen) old() string { return b.known[b.rng.Intn(len(b.known))] }

// fact returns one fact text whose arguments include nFresh fresh constants
// (0, 1 or 2) and otherwise known ones.
func (b *batchGen) fact(nFresh int) string {
	args := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			if i < nFresh {
				out[i] = b.fresh()
			} else {
				out[i] = b.old()
			}
		}
		b.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	switch pred := []string{"r", "e", "s", "w"}[b.rng.Intn(4)]; pred {
	case "w":
		return fmt.Sprintf("w(%s)", args(1)[0])
	default:
		a := args(2)
		return fmt.Sprintf("%s(%s, %s)", pred, a[0], a[1])
	}
}

// batch returns a batch bringing exactly nFresh fresh constants (spread
// over its facts), possibly beside facts over known constants only.
func (b *batchGen) batch(nFresh int) []string {
	var out []string
	for left := nFresh; left > 0; {
		n := 1 + b.rng.Intn(2)
		if n > left {
			n = left
		}
		f := b.fact(n)
		if strings.HasPrefix(f, "w(") {
			n = 1
		}
		out = append(out, f)
		left -= n
	}
	for i := b.rng.Intn(3); i > 0; i-- {
		out = append(out, b.fact(0))
	}
	b.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestDeltaAssertMatchesRebuild: after every assert-only step — batches of
// zero to three fresh constants — the incrementally maintained program
// holds exactly the instance set a fresh grounding of the effective program
// does.
func TestDeltaAssertMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := deltaProgram(rng)
		p := mustProgram(t, src)
		gp, err := ground.GroundCtx(context.Background(), p, ground.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		comp, _ := p.ComponentIndex("base")
		tn := newTenant(p, comp)
		gen := &batchGen{rng: rng, known: []string{"a", "b", "c", "d"}}
		for step := 0; step < 8; step++ {
			texts := tn.assertable(gen.batch(step % 4))
			facts := mustLits(t, texts...)
			if _, err := gp.AssertFacts(context.Background(), comp, facts); err != nil {
				t.Fatalf("seed %d step %d: assert %v: %v", seed, step, texts, err)
			}
			tn.asserted(texts, facts)
			fresh, err := ground.GroundCtx(context.Background(), tn.effective(t), ground.DefaultOptions())
			if err != nil {
				t.Fatalf("seed %d step %d: rebuild: %v", seed, step, err)
			}
			if d := diffSets(instanceSet(gp, nil), instanceSet(fresh, nil)); d != "" {
				t.Fatalf("seed %d step %d: after assert %v the maintained program differs from a rebuild:\n%s\nprogram:\n%s",
					seed, step, texts, d, src)
			}
			if len(gp.Universe) != len(fresh.Universe) {
				t.Fatalf("seed %d step %d: universe %d, rebuild %d", seed, step, len(gp.Universe), len(fresh.Universe))
			}
		}
	}
}

// TestDeltaChurnMatchesRebuildModels: with retracts interleaved the
// instance list keeps dead entries, so the comparison is semantic — the
// least model of every component over the live instances equals the
// rebuild's. A retract the incremental path refuses regrounds, as the
// engine would.
func TestDeltaChurnMatchesRebuildModels(t *testing.T) {
	regrounds := make(map[string]int)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 500))
		src := deltaProgram(rng)
		p := mustProgram(t, src)
		gp, err := ground.GroundCtx(context.Background(), p, ground.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		comp, _ := p.ComponentIndex("base")
		tn := newTenant(p, comp)
		dead := make(map[int32]struct{})
		gen := &batchGen{rng: rng, known: []string{"a", "b", "c", "d"}}
		for step := 0; step < 10; step++ {
			var what string
			if rng.Intn(3) == 0 {
				texts := tn.liveTexts()
				k := texts[rng.Intn(len(texts))]
				what = "retract " + k
				idx, err := gp.RetractFacts(comp, mustLits(t, k))
				tn.retracted(k)
				switch {
				case errors.Is(err, ground.ErrNeedsReground):
					regrounds[ground.RegroundReason(err)]++
					gp, err = ground.GroundCtx(context.Background(), tn.effective(t), ground.DefaultOptions())
					if err != nil {
						t.Fatal(err)
					}
					// The rebuilt program holds the effective facts as source.
					tn, dead = newTenant(gp.Src, comp), make(map[int32]struct{})
				case err != nil:
					t.Fatalf("seed %d step %d: %s: %v", seed, step, what, err)
				default:
					for _, i := range idx {
						dead[i] = struct{}{}
					}
				}
			} else {
				texts := tn.assertable(gen.batch(rng.Intn(4)))
				what = fmt.Sprintf("assert %v", texts)
				facts := mustLits(t, texts...)
				d, err := gp.AssertFacts(context.Background(), comp, facts)
				if err != nil {
					t.Fatalf("seed %d step %d: %s: %v", seed, step, what, err)
				}
				for _, i := range d.Existing {
					delete(dead, i)
				}
				tn.asserted(texts, facts)
			}
			fresh, err := ground.GroundCtx(context.Background(), tn.effective(t), ground.DefaultOptions())
			if err != nil {
				t.Fatalf("seed %d step %d: rebuild: %v", seed, step, err)
			}
			got, want := leastModels(t, gp, dead), leastModels(t, fresh, nil)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("seed %d step %d: after %s component %d has least model\n  %s\nrebuild has\n  %s\nprogram:\n%s",
						seed, step, what, c, got[c], want[c], src)
				}
			}
		}
	}
	for _, reason := range []string{"last-constant", "edb-retract"} {
		if regrounds[reason] == 0 {
			t.Fatalf("no retract fell back with %q (fallbacks seen: %v); the suite no longer covers that path", reason, regrounds)
		}
	}
}

// TestRegroundReasonsLeaveProgramUnchanged: every fallback reason is still
// reachable, and a refused update leaves Rules, the universe and the
// incremental state exactly as they were.
func TestRegroundReasonsLeaveProgramUnchanged(t *testing.T) {
	const src = `
module top { -e(X, Y). }
module base extends top {
  e(a, b). r(a, b). r(b, a). only(z). pinned(X). pinned2(a) :- 1 < 2.
  q(X) :- r(X, Y).
}
module exc extends base { -q(X) :- e(X, Y). }
`
	ctx := context.Background()
	fresh := func(t *testing.T, text string, opts ground.Options) (*ground.Program, int) {
		p := mustProgram(t, text)
		gp, err := ground.GroundCtx(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		comp, _ := p.ComponentIndex("base")
		return gp, comp
	}
	full := ground.DefaultOptions()
	full.Mode = ground.ModeFull
	sliced := ground.DefaultOptions()
	sliced.Goal = mustLits(t, "q(a)")
	cases := []struct {
		reason string
		src    string
		opts   ground.Options
		prep   func(gp *ground.Program, comp int)
		update func(gp *ground.Program, comp int) error
	}{
		{reason: "negative-fact", update: func(gp *ground.Program, comp int) error {
			_, err := gp.AssertFacts(ctx, comp, mustLits(t, "-r(a, a)"))
			return err
		}},
		{reason: "compound-args", update: func(gp *ground.Program, comp int) error {
			_, err := gp.AssertFacts(ctx, comp, mustLits(t, "r(f(a), a)"))
			return err
		}},
		{reason: "compound-args", update: func(gp *ground.Program, comp int) error {
			_, err := gp.RetractFacts(comp, mustLits(t, "r(f(a), a)"))
			return err
		}},
		{reason: "new-constant", src: "module base { num(z). num(s(X)) :- num(X). }", update: func(gp *ground.Program, comp int) error {
			_, err := gp.AssertFacts(ctx, comp, mustLits(t, "num(k)"))
			return err
		}},
		{reason: "new-constant", src: "module base { p(X) :- q(X). }", update: func(gp *ground.Program, comp int) error {
			_, err := gp.AssertFacts(ctx, comp, mustLits(t, "q(k)"))
			return err
		}},
		{reason: "edb-retract", update: func(gp *ground.Program, comp int) error {
			_, err := gp.RetractFacts(comp, mustLits(t, "e(a, b)"))
			return err
		}},
		{reason: "universal-fact", update: func(gp *ground.Program, comp int) error {
			_, err := gp.RetractFacts(comp, mustLits(t, "pinned(a)"))
			return err
		}},
		{reason: "universal-fact", update: func(gp *ground.Program, comp int) error {
			_, err := gp.RetractFacts(comp, mustLits(t, "pinned2(a)"))
			return err
		}},
		{reason: "last-constant", update: func(gp *ground.Program, comp int) error {
			_, err := gp.RetractFacts(comp, mustLits(t, "only(z)"))
			return err
		}},
		{reason: "last-constant", prep: func(gp *ground.Program, comp int) {
			if _, err := gp.AssertFacts(ctx, comp, mustLits(t, "r(k1, a)", "w(k1)")); err != nil {
				t.Fatal(err)
			}
			if _, err := gp.RetractFacts(comp, mustLits(t, "w(k1)")); err != nil {
				t.Fatalf("k1 still has an occurrence: %v", err)
			}
		}, update: func(gp *ground.Program, comp int) error {
			_, err := gp.RetractFacts(comp, mustLits(t, "r(k1, a)"))
			return err
		}},
		{reason: "full-mode", opts: full, update: func(gp *ground.Program, comp int) error {
			_, err := gp.AssertFacts(ctx, comp, mustLits(t, "r(a, a)"))
			return err
		}},
		{reason: "goal-sliced", opts: sliced, update: func(gp *ground.Program, comp int) error {
			_, err := gp.RetractFacts(comp, mustLits(t, "r(a, b)"))
			return err
		}},
		{reason: "poisoned", prep: func(gp *ground.Program, comp int) {
			dead, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := gp.AssertFacts(dead, comp, mustLits(t, "r(k1, k2)")); err == nil || errors.Is(err, ground.ErrNeedsReground) {
				t.Fatalf("cancelled growth assert: err = %v, want an interrupt", err)
			}
			if gp.Incremental() {
				t.Fatal("a cancelled update left the program incremental")
			}
		}, update: func(gp *ground.Program, comp int) error {
			_, err := gp.AssertFacts(ctx, comp, mustLits(t, "r(a, a)"))
			return err
		}},
	}
	for _, tc := range cases {
		text, opts := tc.src, tc.opts
		if text == "" {
			text = src
		}
		gp, comp := fresh(t, text, opts)
		if tc.prep != nil {
			tc.prep(gp, comp)
		}
		before, uni := instanceSet(gp, nil), len(gp.Universe)
		err := tc.update(gp, comp)
		if got := ground.RegroundReason(err); got != tc.reason || !errors.Is(err, ground.ErrNeedsReground) {
			t.Fatalf("%s: err = %v (reason %q)", tc.reason, err, got)
		}
		if d := diffSets(instanceSet(gp, nil), before); d != "" || len(gp.Universe) != uni {
			t.Fatalf("%s: a refused update changed the program:\n%s", tc.reason, d)
		}
		if tc.reason == "full-mode" || tc.reason == "goal-sliced" || tc.reason == "poisoned" {
			continue
		}
		if !gp.Incremental() {
			t.Fatalf("%s: the refusal cost the program its incremental state", tc.reason)
		}
	}
}

// An assert can make fireable an instance that an earlier competitor pass
// emitted and no pass registered as a target: p1(c1) in m0 fires
// -p3(c0) :- e(c0, c1), p1(c1), a competitor of m1's target p3(c0) until
// then. A rebuild's fireable pass registers it, so its own competitors —
// p3(c0)'s instances in m0, which defeat it — must be emitted too.
func TestDeltaRegistersCompetitorInstances(t *testing.T) {
	const src = `
module m0 { e(c1, c2). p1(c0). e(c2, c0). p0(c1).
  p3(X) :- e(X, Y), -p1(Y). p3(X) :- e(X, Y), p2(Y). -p3(X) :- e(X, Y), p1(Y). }
module m1 { e(c2, c1). p3(c2). e(c2, c2).
  -p1(X) :- e(X, Y), p1(Y). p3(X) :- e(X, Y), -p3(Y). -p3(X) :- e(X, Y), -p2(Y). }
module m2 { e(c0, c1). -p3(c1). e(c2, c0). p0(c0).
  -p3(X) :- e(X, Y), p2(Y). p1(X) :- e(X, Y), -p0(Y). p1(X) :- e(X, Y), -p2(Y). }
order m0 < m2.
order m1 < m2.
`
	gp, err := ground.GroundCtx(context.Background(), mustProgram(t, src), ground.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gp.AssertFacts(context.Background(), 0, mustLits(t, "p1(c1)")); err != nil {
		t.Fatal(err)
	}
	fresh, err := ground.GroundCtx(context.Background(), mustProgram(t, strings.Replace(src, "p0(c1).", "p0(c1). p1(c1).", 1)), ground.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d := diffSets(instanceSet(gp, nil), instanceSet(fresh, nil)); d != "" {
		t.Fatalf("after assert p1(c1) the maintained program differs from a rebuild:\n%s", d)
	}
}
