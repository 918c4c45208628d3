// The universe pinned to the AST walk it replaced. The grounder builds the
// Herbrand universe from the constants, function symbols and depths its
// one id pass over the source counts; astUniverse walks the program's
// terms again, as the grounder did before, and must give the same terms in
// the same order.
package ground

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/oracle/gen"
	"repro/internal/parser"
	"repro/internal/term"
)

// astUniverse is the Herbrand universe by walking p: its constants
// (ast.OrderedProgram.Constants), or u0 when it has none but some rule has
// a variable, closed under its function symbols up to maxDepth (< 0: the
// deepest atom argument), sorted. A positive budget caps its size.
func astUniverse(p *ast.OrderedProgram, maxDepth int, budget int) ([]ast.Term, error) {
	if maxDepth < 0 {
		maxDepth = astTermDepth(p)
	}
	base := p.Constants()
	if len(base) == 0 && astHasVars(p) {
		base = []ast.Term{ast.Sym("u0")}
	}
	all := append([]ast.Term(nil), base...)
	functors := astFunctors(p)
	over := func() error {
		if budget > 0 && len(all) > budget {
			return &ErrBudget{"universe", budget}
		}
		return nil
	}
	if maxDepth < 1 || len(functors) == 0 {
		return all, over()
	}
	// Members are deduplicated by id in a private term table.
	dedup := term.NewTable()
	members := make(map[term.ID]bool, len(all))
	for _, t := range all {
		members[dedup.Intern(t)] = true
	}
	for d := 1; d <= maxDepth; d++ {
		var next []ast.Term
		for _, f := range functors {
			args := make([]ast.Term, f.Arity)
			// Argument tuples from all, at least one of depth d-1, so the
			// compound has depth d.
			var build func(i int, usedPrev bool) error
			build = func(i int, usedPrev bool) error {
				if i == f.Arity {
					if !usedPrev {
						return nil
					}
					c := ast.Compound{Functor: f.Name, Args: append([]ast.Term(nil), args...)}
					id := dedup.Intern(c)
					if members[id] {
						return nil
					}
					members[id] = true
					next = append(next, c)
					if budget > 0 && len(members) > budget {
						return &ErrBudget{"universe", budget}
					}
					return nil
				}
				for _, t := range all {
					args[i] = t
					if err := build(i+1, usedPrev || ast.TermDepth(t) == d-1); err != nil {
						return err
					}
				}
				return nil
			}
			if err := build(0, false); err != nil {
				return nil, err
			}
		}
		if len(next) == 0 {
			break
		}
		all = append(all, next...)
	}
	slices.SortFunc(all, ast.CompareTerms)
	return all, over()
}

// astArgs calls fn on every atom argument of every rule of p.
func astArgs(p *ast.OrderedProgram, fn func(ast.Term)) {
	for _, c := range p.Components {
		for _, r := range c.Rules {
			for _, t := range r.Head.Atom.Args {
				fn(t)
			}
			for _, l := range r.Body {
				for _, t := range l.Atom.Args {
					fn(t)
				}
			}
		}
	}
}

// astTermDepth is the deepest atom argument of p.
func astTermDepth(p *ast.OrderedProgram) int {
	d := 0
	astArgs(p, func(t ast.Term) { d = max(d, ast.TermDepth(t)) })
	return d
}

// astHasVars reports whether some rule of p has a variable.
func astHasVars(p *ast.OrderedProgram) bool {
	for _, c := range p.Components {
		for _, r := range c.Rules {
			if len(r.Vars()) > 0 {
				return true
			}
		}
	}
	return false
}

// astFunctors lists the function symbols of p's atom arguments, sorted by
// name, then arity.
func astFunctors(p *ast.OrderedProgram) []ast.PredKey {
	seen := make(map[ast.PredKey]bool)
	var out []ast.PredKey
	var walk func(ast.Term)
	walk = func(t ast.Term) {
		if c, ok := t.(ast.Compound); ok {
			if k := (ast.PredKey{Name: c.Functor, Arity: len(c.Args)}); !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
			for _, a := range c.Args {
				walk(a)
			}
		}
	}
	astArgs(p, walk)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// sameTerms reports whether a and b hold equal terms of equal kinds, in
// the same order.
func sameTerms(a, b []ast.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if fmt.Sprintf("%T", a[i]) != fmt.Sprintf("%T", b[i]) || !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestUniverseMatchesAST: on the figure programs, the seeded corpus, the
// two serving tenants, a program of variables only and every grounding
// TestGroundDigests takes, a grounding's universe is astUniverse's, element
// for element; so is Universe at explicit depths and budgets.
func TestUniverseMatchesAST(t *testing.T) {
	progs := map[string]*ast.OrderedProgram{
		"vars-only":   parse(t, "p(X) :- q(X).\nq(X) :- p(X), -r(X).\n"),
		"builtins":    parse(t, "p(X) :- q(X), X < 7, X != f(b).\nq(3).\nq('3').\n"),
		"policy":      policyProgram(t, 300),
		"reads":       readsProgram(t, 40, 20),
		"interleaved": parse(t, interleavedSource),
		"reground":    interleavedReground(t),
	}
	for _, sh := range benchShapes(t) {
		progs["bench/"+sh.name] = sh.prog
	}
	files, err := filepath.Glob("../../testdata/*.olp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no programs under testdata: %v", err)
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
		progs[filepath.Base(f)] = res.Program
	}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		progs[fmt.Sprintf("ordered/%d", seed)] = gen.RandomOrdered(rng, 1+rng.Intn(4), gen.RandomConfig{
			Atoms: 3 + rng.Intn(5), Rules: 5 + rng.Intn(10), MaxBody: 3, NegHeads: true, NegBody: true,
		})
		rng = rand.New(rand.NewSource(seed + 1_000))
		progs[fmt.Sprintf("datalog/%d", seed)] = gen.RandomOrderedDatalog(rng, 1+rng.Intn(3), 2+rng.Intn(3))
	}
	for name, p := range progs {
		want, err := astUniverse(p, -1, DefaultOptions().MaxUniverse)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		gp, err := GroundCtx(context.Background(), p, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameTerms(gp.Universe, want) {
			t.Errorf("%s: universe %v, want %v", name, gp.Universe, want)
		}
	}
	// Explicit depths and budgets, on function symbols of one and two
	// arguments.
	for name, p := range map[string]*ast.OrderedProgram{
		"peano": progs["peano.olp"],
		"g":     parse(t, "p(g(a, b)).\nq(f(X)) :- p(X).\n"),
	} {
		for depth := 0; depth <= 3; depth++ {
			for _, budget := range []int{0, 10, 40} {
				want, wantErr := astUniverse(p, depth, budget)
				got, err := Universe(p, depth, budget)
				if (err != nil) != (wantErr != nil) || !sameTerms(got, want) && err == nil {
					t.Errorf("%s depth %d budget %d: %v (%v), want %v (%v)", name, depth, budget, got, err, want, wantErr)
				}
			}
		}
	}
}
