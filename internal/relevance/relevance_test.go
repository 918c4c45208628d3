package relevance_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/relevance"
)

func parse(t *testing.T, src string) *ast.OrderedProgram {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func goalOf(t *testing.T, lits ...string) []ast.Literal {
	t.Helper()
	goal := make([]ast.Literal, len(lits))
	for i, s := range lits {
		l, err := parser.ParseLiteral(s)
		if err != nil {
			t.Fatal(err)
		}
		goal[i] = l
	}
	return goal
}

func key(name string, arity int) ast.PredKey { return ast.PredKey{Name: name, Arity: arity} }

// The right-recursive transitive closure: path keeps its first position
// bound under head-only information passing, edge is EDB-exempt, and the
// disconnected junk predicates fall out of the slice entirely.
const chainSrc = `
module base {
  edge(c0, c1). edge(c1, c2). edge(c2, c3).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- path(X, Y), edge(Y, Z).
}
module exc extends base {
  -path(X, c3) :- edge(X, c3).
}
module junk {
  je(d0, d1).
  jp(X) :- je(X, Y).
}
`

func TestChainRightRecursive(t *testing.T) {
	p := parse(t, chainSrc)
	a := relevance.Analyze(p, goalOf(t, "path(c0, X)"))

	if got := a.AdornString(key("path", 2)); got != "path/2^bf" {
		t.Errorf("path adornment = %q, want path/2^bf", got)
	}
	if !a.Restricted(key("path", 2)) {
		t.Error("path not restricted")
	}
	if !a.EDB[key("edge", 2)] || a.Restricted(key("edge", 2)) {
		t.Error("edge should be EDB-exempt and unrestricted")
	}
	for _, k := range []ast.PredKey{key("je", 2), key("jp", 1)} {
		if a.Demanded[k] {
			t.Errorf("disconnected predicate %v demanded", k)
		}
	}
	for _, c := range p.Components {
		for _, r := range c.Rules {
			want := c.Name != "junk"
			if got := a.RuleDemanded(r); got != want {
				t.Errorf("RuleDemanded(%s in %s) = %v, want %v", r, c.Name, got, want)
			}
		}
	}
	if len(a.Seeds) != 1 {
		t.Fatalf("seeds = %v, want exactly one", a.Seeds)
	}
	s := a.Seeds[0]
	if s.Key != key("m:path/2", 1) || len(s.Args) != 1 || s.Args[0].String() != "c0" {
		t.Errorf("seed = %+v, want m:path/2(c0)", s)
	}
	// One propagation rule (the recursive call), deduplicated and safe.
	if len(a.Magic) != 1 {
		t.Fatalf("magic rules = %v, want exactly one", a.Magic)
	}
	for _, r := range a.Magic {
		if err := r.CheckSafety(); err != nil {
			t.Errorf("magic rule unsafe: %v", err)
		}
	}
	if got, want := a.Magic[0].String(), "'m:path/2'(X) :- 'm:path/2'(X)."; got != want {
		t.Errorf("magic rule = %q, want %q", got, want)
	}
}

// The left-recursive formulation defeats head-only information passing:
// the recursive call's first argument is not head-bound, so the meet
// collapses to all-free and path is unrestricted (sound, just not sliced
// by bindings — see DESIGN §12).
func TestChainLeftRecursiveUnrestricted(t *testing.T) {
	p := parse(t, `
module base {
  edge(c0, c1). edge(c1, c2).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- edge(X, Y), path(Y, Z).
}
`)
	a := relevance.Analyze(p, goalOf(t, "path(c0, X)"))
	if got := a.AdornString(key("path", 2)); got != "path/2^ff" {
		t.Errorf("path adornment = %q, want path/2^ff", got)
	}
	if a.Restricted(key("path", 2)) {
		t.Error("left-recursive path should be unrestricted")
	}
	if len(a.Seeds) != 0 || len(a.Magic) != 0 {
		t.Errorf("unrestricted slice has seeds %v / magic %v", a.Seeds, a.Magic)
	}
}

// Upward closure pulls in consumers of demanded predicates (so the slice
// stays closed for model enumeration); consumers without call sites of
// their own are pinned unrestricted, and their ground call sites become
// guardless magic facts.
func TestUpwardClosure(t *testing.T) {
	p := parse(t, chainSrc+`
module watch {
  mark(X) :- path(c1, X).
}
`)
	a := relevance.Analyze(p, goalOf(t, "path(c0, X)"))
	mk := key("mark", 1)
	if !a.Demanded[mk] {
		t.Fatal("mark not demanded through upward closure")
	}
	if a.Restricted(mk) {
		t.Error("mark has no call site and must be unrestricted")
	}
	// mark's body occurrence path(c1, X) contributes a guardless demand
	// fact m:path/2(c1) so the c1 cone grounds like the full program.
	found := false
	for _, r := range a.Magic {
		if r.Head.Key == key("m:path/2", 1) && len(r.Body) == 0 &&
			len(r.Head.Args) == 1 && r.Head.Args[0].String() == "c1" {
			found = true
		}
		if err := r.CheckSafety(); err != nil {
			t.Errorf("magic rule unsafe: %v", err)
		}
	}
	if !found {
		t.Errorf("missing guardless m:path/2(c1) fact; magic = %v", a.Magic)
	}
}

// A predicate defined by rules (not just ground facts) loses the EDB
// exemption and can be restricted when all call sites bind it.
func TestDerivedPredicateRestricted(t *testing.T) {
	p := parse(t, `
module m {
  raw(c0, c1).
  edge(X, Y) :- raw(X, Y).
  out(Y) :- edge(c0, Y).
}
`)
	a := relevance.Analyze(p, goalOf(t, "out(X)"))
	if a.EDB[key("edge", 2)] {
		t.Error("derived edge must not be EDB-exempt")
	}
	if got := a.AdornString(key("edge", 2)); got != "edge/2^bf" {
		t.Errorf("edge adornment = %q, want edge/2^bf", got)
	}
	if !a.EDB[key("raw", 2)] {
		t.Error("raw should be EDB-exempt")
	}
	if a.Restricted(key("out", 1)) {
		t.Error("out is unbound in the goal and must be unrestricted")
	}
	if len(a.Seeds) != 0 {
		t.Errorf("no goal literal is restricted, seeds = %v", a.Seeds)
	}
	found := false
	for _, r := range a.Magic {
		if r.Head.Key == key("m:edge/2", 1) && len(r.Body) == 0 &&
			len(r.Head.Args) == 1 && r.Head.Args[0].String() == "c0" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing guardless m:edge/2(c0) fact; magic = %v", a.Magic)
	}
}

func TestPropositionalGoal(t *testing.T) {
	p := parse(t, "module m {\n  b.\n  a :- b.\n}\n")
	a := relevance.Analyze(p, goalOf(t, "a"))
	if !a.Demanded[key("a", 0)] || !a.Demanded[key("b", 0)] {
		t.Error("propositional closure incomplete")
	}
	if a.Restricted(key("a", 0)) || len(a.Seeds) != 0 || len(a.Magic) != 0 {
		t.Error("arity-0 predicates must never be restricted")
	}
}

func TestEmptyGoal(t *testing.T) {
	p := parse(t, chainSrc)
	a := relevance.Analyze(p, nil)
	if a.NumDemanded() != 0 {
		t.Errorf("empty goal demanded %d predicates", a.NumDemanded())
	}
}

func TestGoalKey(t *testing.T) {
	g1 := goalOf(t, "path(c0, X)", "-edge(X, Y)")
	g2 := goalOf(t, "-edge(A, B)", "path(c0, Z)")
	if k1, k2 := relevance.GoalKey(g1), relevance.GoalKey(g2); k1 != k2 {
		t.Errorf("GoalKey order/variable-name sensitive: %q vs %q", k1, k2)
	}
	if k := relevance.GoalKey(goalOf(t, "path(c0, X)")); k != "path/2(c0,_)" {
		t.Errorf("GoalKey = %q", k)
	}
	pos := relevance.GoalKey(goalOf(t, "edge(c0, c1)"))
	neg := relevance.GoalKey(goalOf(t, "-edge(c0, c1)"))
	if pos == neg {
		t.Error("GoalKey ignores the literal sign")
	}
	if !strings.Contains(neg, "-edge/2") {
		t.Errorf("negative GoalKey = %q", neg)
	}
}

// goalKeyOracle is GoalKey as it was before entries were written into one
// presized builder: a string per entry, sorted, joined.
func goalKeyOracle(goal []ast.Literal) string {
	parts := make([]string, len(goal))
	for i, l := range goal {
		var b strings.Builder
		if l.Neg {
			b.WriteByte('-')
		}
		b.WriteString(l.Atom.Pred + "/" + strconv.Itoa(len(l.Atom.Args)) + "(")
		for j, t := range l.Atom.Args {
			if j > 0 {
				b.WriteByte(',')
			}
			if t.Ground() {
				b.WriteString(t.String())
			} else {
				b.WriteByte('_')
			}
		}
		b.WriteByte(')')
		parts[i] = b.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// TestGoalKeyMatchesOracle: GoalKey is byte for byte the sorted join of
// its entries, on goals of up to 12 literals (past the key's in-place
// entry buffers) in and out of order, with integer, compound, ground and
// non-ground arguments.
func TestGoalKeyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	term := func() ast.Term {
		switch rng.Intn(5) {
		case 0:
			return ast.Var{Name: "X"}
		case 1:
			return ast.Int(rng.Int63n(200) - 100)
		case 2:
			return ast.Compound{Functor: "f", Args: []ast.Term{ast.Sym("a"), ast.Var{Name: "Y"}}}
		case 3:
			return ast.Compound{Functor: "g", Args: []ast.Term{ast.Int(7), ast.Sym("b")}}
		}
		return ast.Sym(fmt.Sprintf("c%d", rng.Intn(20)))
	}
	for n := 0; n < 3000; n++ {
		goal := make([]ast.Literal, rng.Intn(13))
		for i := range goal {
			a := ast.Atom{Pred: fmt.Sprintf("p%d", rng.Intn(4)), Args: make([]ast.Term, rng.Intn(4))}
			for j := range a.Args {
				a.Args[j] = term()
			}
			goal[i] = ast.Literal{Neg: rng.Intn(3) == 0, Atom: a}
		}
		if got, want := relevance.GoalKey(goal), goalKeyOracle(goal); got != want {
			t.Fatalf("GoalKey = %q, want %q", got, want)
		}
	}
}
