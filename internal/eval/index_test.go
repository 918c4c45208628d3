package eval_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/parser"
)

// viewShapesSrc has competitor edges of every kind: a diamond order with
// incomparable middle components (defeaters across components), a
// component overruling both of them, defeaters inside one component, and
// rules of a more general component that can neither overrule nor defeat.
const viewShapesSrc = `
module top {
  q(a). q(b). q(f(a)).
  p(X) :- q(X).
  -r(X) :- q(X).
}
module left extends top {
  -p(X) :- q(X).
  r(a).
  s(X) :- p(X). -s(X) :- q(X).
}
module right extends top {
  -p(a).
  r(X) :- q(X), -s(X).
}
module bottom extends left, right {
  p(X) :- r(X).
  -r(f(a)).
  -s(b) :- p(b).
}
`

// TestViewIndexesMatchScan pins every index a View builds to a quadratic
// scan of the rules it sees, by Definition 2: over the seeded corpus and
// the shapes program, from every component, over the whole program and
// over random prefixes (the instances past one dead) with random dead sets
// and tight or full Herbrand bases.
func TestViewIndexesMatchScan(t *testing.T) {
	progs := differentialPrograms(t)
	shapes, err := parser.ParseProgram(viewShapesSrc)
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, shapes)
	rng := rand.New(rand.NewSource(1))
	edges := [2]int{} // overruler and defeater edges checked: the scan is not vacuous
	for pi, p := range progs {
		g, err := ground.GroundCtx(context.Background(), p, ground.DefaultOptions())
		if err != nil {
			t.Fatalf("program %d: ground: %v", pi, err)
		}
		for ci := range p.Components {
			checkViewIndexes(t, g, ci, g.Rules, nil, g.Tab.Len(), &edges)
			for trial := 0; trial < 3; trial++ {
				rules := g.Rules
				n := rng.Intn(rules.Len() + 1)
				dead := make(map[int32]struct{})
				for i := 0; i < rules.Len(); i++ {
					if i >= n || rng.Intn(4) == 0 {
						dead[int32(i)] = struct{}{}
					}
				}
				nAtoms := g.Tab.Len()
				if rng.Intn(2) == 0 {
					nAtoms = 0 // the tightest base the prefix allows
					for i := 0; i < n; i++ {
						nAtoms = max(nAtoms, int(rules.Head(i).Atom())+1)
						for _, l := range rules.Body(i) {
							nAtoms = max(nAtoms, int(l.Atom())+1)
						}
					}
				}
				checkViewIndexes(t, g, ci, rules, dead, nAtoms, &edges)
			}
			if t.Failed() {
				t.Fatalf("program %d component %d:\n%s", pi, ci, p)
			}
		}
	}
	if edges[0] == 0 || edges[1] == 0 {
		t.Fatalf("checked %d overruler and %d defeater edges; the corpus must have both", edges[0], edges[1])
	}
}

func checkViewIndexes(t *testing.T, g *ground.Program, ci int, rules ground.Instances, dead map[int32]struct{}, nAtoms int, edges *[2]int) {
	t.Helper()
	v := eval.NewViewAt(g, ci, rules, dead, nAtoms)
	src := g.Src
	var seen []int // the visible rules, in instance order: local index → instance
	for i := 0; i < rules.Len(); i++ {
		if _, gone := dead[int32(i)]; gone || !slices.Contains(src.Above(ci), int(rules.Comp(i))) {
			continue
		}
		seen = append(seen, i)
	}
	if v.NumRules() != len(seen) {
		t.Fatalf("NumRules = %d, scan finds %d", v.NumRules(), len(seen))
	}
	rule := func(r int) ground.Rule { return rules.Rule(seen[r]) }
	for r := range seen {
		if g.RuleString(v.GroundRule(r)) != rules.RuleString(seen[r]) || v.GroundRule(r).Src != rule(r).Src || v.Head(r) != rule(r).Head || v.RuleComp(r) != int(rule(r).Comp) || !slices.Equal(v.Body(r), rule(r).Body) {
			t.Fatalf("local rule %d is not instance %d", r, seen[r])
		}
	}
	// Definition 2: r' with the complementary head overrules r when its
	// component is strictly more specific, and defeats r when it is the
	// same or incomparable.
	over := func(r, o int) bool {
		return rule(o).Head == rule(r).Head.Complement() && src.Less(int(rule(o).Comp), int(rule(r).Comp))
	}
	defeat := func(r, o int) bool {
		cr, co := int(rule(r).Comp), int(rule(o).Comp)
		return rule(o).Head == rule(r).Head.Complement() && (cr == co || src.Incomparable(cr, co))
	}
	scan := func(keep func(int) bool) []int32 {
		var out []int32
		for o := range seen {
			if keep(o) {
				out = append(out, int32(o))
			}
		}
		return out
	}
	same := func(what string, got, want []int32) {
		t.Helper()
		if len(got) != 0 || len(want) != 0 {
			if !slices.Equal(got, want) {
				t.Errorf("%s = %v, scan gives %v", what, got, want)
			}
		}
	}
	for r := range seen {
		overrulers := scan(func(o int) bool { return over(r, o) })
		defeaters := scan(func(o int) bool { return defeat(r, o) })
		edges[0], edges[1] = edges[0]+len(overrulers), edges[1]+len(defeaters)
		same("Overrulers", v.Overrulers(r), overrulers)
		same("Competitors", v.Competitors(r), append(overrulers, defeaters...))
		canOver, canDefeat := v.Threats(r)
		same("threats overruled", canOver, scan(func(s int) bool { return over(s, r) }))
		same("threats defeated", canDefeat, scan(func(s int) bool { return defeat(s, r) }))
	}
	for l := interp.Lit(0); int(l) < 2*nAtoms; l++ {
		same("HeadRules", v.HeadRules(l), scan(func(r int) bool { return rule(r).Head == l }))
		var occ []int32
		for r := range seen {
			for _, b := range rule(r).Body {
				if b == l {
					occ = append(occ, int32(r))
				}
			}
		}
		same("BodyOcc", v.BodyOcc(l), occ)
	}
	for l := interp.Lit(2 * nAtoms); l < interp.Lit(2*nAtoms+4); l++ {
		if got := v.HeadRules(l); len(got) != 0 {
			t.Errorf("HeadRules(%d) past the base of %d atoms = %v", l, nAtoms, got)
		}
	}
}
