package ground

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// chainProgram builds the right-recursive transitive closure over an
// n-edge chain, one exception component overriding path into the last
// node, and a disconnected junk component of the same shape that a
// goal-directed grounding must not instantiate.
func chainProgram(t *testing.T, n int) *ast.OrderedProgram {
	t.Helper()
	var b strings.Builder
	b.WriteString("module base {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  edge(c%d, c%d).\n", i, i+1)
	}
	b.WriteString("  path(X, Y) :- edge(X, Y).\n")
	b.WriteString("  path(X, Z) :- path(X, Y), edge(Y, Z).\n")
	b.WriteString("}\n")
	fmt.Fprintf(&b, "module exc extends base {\n  -path(X, c%d) :- edge(X, c%d).\n}\n", n, n)
	b.WriteString("module junk {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  jedge(c%d, c%d).\n", i, i+1)
	}
	b.WriteString("  jpath(X, Y) :- jedge(X, Y).\n")
	b.WriteString("  jpath(X, Z) :- jpath(X, Y), jedge(Y, Z).\n")
	b.WriteString("}\n")
	p, err := parser.ParseProgram(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func goalLits(t testing.TB, lits ...string) []ast.Literal {
	t.Helper()
	out := make([]ast.Literal, len(lits))
	for i, s := range lits {
		l, err := parser.ParseLiteral(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = l
	}
	return out
}

func ruleStringSet(gp *Program) map[string]bool {
	rs := gp.rules()
	set := make(map[string]bool, len(rs))
	for _, r := range rs {
		set[fmt.Sprintf("m%d: %s", r.Comp, gp.RuleString(r))] = true
	}
	return set
}

// The sliced instance set must be a subset of the full one (slicing never
// invents instances), must still contain the goal cone, and must drop the
// disconnected component and the off-goal path instances entirely. At
// n = 100 the full grounding carries the O(n^2) closure and the slice the
// O(n) cone, so the slice must be at least ten times smaller.
func TestGoalSliceSubset(t *testing.T) {
	for _, c := range []struct{ n, minRatio int }{{12, 1}, {100, 10}} {
		t.Run(fmt.Sprintf("n=%d", c.n), func(t *testing.T) {
			p := chainProgram(t, c.n)
			opts := DefaultOptions()
			full, err := GroundCtx(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Goal = goalLits(t, "path(c0, X)")
			sliced, err := GroundCtx(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sliced.sliced || sliced.Incremental() {
				t.Error("sliced program must be marked sliced and non-incremental")
			}
			fullSet, slicedSet := ruleStringSet(full), ruleStringSet(sliced)
			for r := range slicedSet {
				if !fullSet[r] {
					t.Errorf("sliced instance %s not in the full grounding", r)
				}
			}
			if sliced.Rules.Len() >= full.Rules.Len() {
				t.Errorf("sliced %d instances, full %d: no reduction", sliced.Rules.Len(), full.Rules.Len())
			}
			if sliced.Rules.Len()*c.minRatio > full.Rules.Len() {
				t.Errorf("sliced %d instances, full %d: want at least %d× fewer", sliced.Rules.Len(), full.Rules.Len(), c.minRatio)
			}
			for r := range slicedSet {
				if strings.Contains(r, "jpath") || strings.Contains(r, "jedge") {
					t.Errorf("disconnected instance survived slicing: %s", r)
				}
			}
			// The whole c0 cone must be present...
			for i := 1; i <= c.n; i++ {
				atom := fmt.Sprintf("path(c0, c%d)", i)
				want := false
				for r := range slicedSet {
					if strings.Contains(r, atom) {
						want = true
						break
					}
				}
				if !want {
					t.Errorf("goal-cone atom %s missing from the slice", atom)
				}
			}
			// ...while off-goal cones (sources other than c0) must not be.
			for r := range slicedSet {
				if strings.Contains(r, "path(c5,") {
					t.Errorf("off-goal instance in slice: %s", r)
				}
			}
		})
	}
}

func TestGoalRequiresSmartMode(t *testing.T) {
	p := chainProgram(t, 3)
	opts := DefaultOptions()
	opts.Mode = ModeFull
	opts.Goal = goalLits(t, "path(c0, X)")
	if _, err := GroundCtx(context.Background(), p, opts); err == nil {
		t.Fatal("ModeFull with a goal must be rejected")
	}
}

func TestGoalSlicedUpdatesReground(t *testing.T) {
	p := chainProgram(t, 3)
	opts := DefaultOptions()
	opts.Goal = goalLits(t, "path(c0, X)")
	gp, err := GroundCtx(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = gp.AssertFacts(context.Background(), 0, goalLits(t, "edge(c0, c2)"))
	if !errors.Is(err, ErrNeedsReground) {
		t.Fatalf("AssertFacts on sliced program: err = %v, want ErrNeedsReground", err)
	}
	if got := RegroundReason(err); got != "goal-sliced" {
		t.Errorf("reground reason = %q, want goal-sliced", got)
	}
	if _, err := gp.RetractFacts(0, goalLits(t, "edge(c0, c1)")); !errors.Is(err, ErrNeedsReground) {
		t.Errorf("RetractFacts on sliced program: err = %v, want ErrNeedsReground", err)
	}
}

// An unrestricted goal (every position free) still prunes disconnected
// components but keeps every demanded instance.
func TestGoalFreeVariableSlice(t *testing.T) {
	p := chainProgram(t, 6)
	opts := DefaultOptions()
	full, err := GroundCtx(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Goal = goalLits(t, "path(X, Y)")
	sliced, err := GroundCtx(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	fullSet, slicedSet := ruleStringSet(full), ruleStringSet(sliced)
	for r := range fullSet {
		if strings.Contains(r, "jpath") || strings.Contains(r, "jedge") {
			continue
		}
		if !slicedSet[r] {
			t.Errorf("free-goal slice dropped connected instance %s", r)
		}
	}
	for r := range slicedSet {
		if !fullSet[r] {
			t.Errorf("sliced instance %s not in the full grounding", r)
		}
	}
}
