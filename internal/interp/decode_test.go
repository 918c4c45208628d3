package interp_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/parser"
)

// TestAtomDecodeRoundTrip: the atom table keeps ids only, and Atom decodes
// an atom from its stored key through the term table. Every atom decodes
// to what was interned — Atom.Equal and the same rendering — over the
// ground atoms written in the reads tenant, the policy tenant and the
// testdata corpus, and over the atoms of their groundings, which decode to
// atoms that look up to their own ids. Symbols that render as integers,
// negative integers and nested compounds stay what they were, also read
// through a sub-table.
func TestAtomDecodeRoundTrip(t *testing.T) {
	progs := map[string]string{"reads-full": readsText(400, 100), "policy": policyText(1000)}
	files, err := filepath.Glob("../../testdata/*.olp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no programs under testdata: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(f)] = string(src)
	}
	for name, src := range progs {
		res, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := res.Program
		var written []ast.Atom
		for _, c := range p.Components {
			for _, r := range c.Rules {
				for _, l := range append([]ast.Literal{r.Head}, r.Body...) {
					if l.Atom.Ground() {
						written = append(written, l.Atom)
					}
				}
			}
		}
		roundTrip(t, name, written)

		gp, err := ground.GroundCtx(context.Background(), p, ground.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		grounded := make([]ast.Atom, gp.Tab.Len())
		for id := range grounded {
			a := gp.Tab.Atom(interp.AtomID(id))
			if got, ok := gp.Tab.Lookup(a); !ok || got != interp.AtomID(id) {
				t.Fatalf("%s: atom %d decodes to %s, which looks up to %d (found %v)", name, id, a, got, ok)
			}
			if k := gp.Tab.Pred(interp.AtomID(id)); k != a.Key() {
				t.Fatalf("%s: atom %d (%s) has predicate %s by its key", name, id, a, k)
			}
			grounded[id] = a
		}
		roundTrip(t, name+" grounded", grounded)
	}

	one, minus, sym1 := ast.Int(1), ast.Int(-7), ast.Sym("1")
	nested := ast.Compound{Functor: "f", Args: []ast.Term{ast.Compound{Functor: "g", Args: []ast.Term{minus, sym1}}, one, ast.Sym("a")}}
	edge := []ast.Atom{
		{Pred: "p", Args: []ast.Term{one}},
		{Pred: "p", Args: []ast.Term{sym1}},
		{Pred: "p", Args: []ast.Term{minus}},
		{Pred: "p", Args: []ast.Term{ast.Int(-1), ast.Sym("-1")}},
		{Pred: "q", Args: []ast.Term{nested, nested}},
		{Pred: "q", Args: []ast.Term{ast.Compound{Functor: "f", Args: []ast.Term{ast.Compound{Functor: "f", Args: []ast.Term{one}}}}, sym1}},
		{Pred: "flag"},
		{Pred: "1", Args: []ast.Term{one}}, // a predicate named like the integer it holds
	}
	tab := roundTrip(t, "edge cases", edge)
	if a, b := tab.Intern(edge[0]), tab.Intern(edge[1]); a == b {
		t.Fatalf("p(1) over Int 1 and over Sym \"1\" share id %d", a)
	}
	// A sub-table over every other atom decodes through its parent.
	var ids []interp.AtomID
	for id := 0; id < tab.Len(); id += 2 {
		ids = append(ids, interp.AtomID(id))
	}
	sub := tab.Sub(ids)
	for j, id := range ids {
		if got, want := sub.Atom(interp.AtomID(j)), tab.Atom(id); !got.Equal(want) || got.String() != want.String() {
			t.Fatalf("sub-table atom %d = %s, parent's atom %d = %s", j, got, id, want)
		}
		if got, ok := sub.Lookup(edge[id]); !ok || got != interp.AtomID(j) {
			t.Fatalf("sub-table lookup of %s = %d (found %v), want %d", edge[id], got, ok, j)
		}
		if k := sub.Pred(interp.AtomID(j)); k != edge[id].Key() {
			t.Fatalf("sub-table atom %d has predicate %s, want %s", j, k, edge[id].Key())
		}
	}
}

// roundTrip interns atoms into a fresh table and fails unless each decodes
// to an equal atom with the same rendering. It returns the table.
func roundTrip(t *testing.T, what string, atoms []ast.Atom) *interp.Table {
	t.Helper()
	tab := interp.NewTable()
	for _, a := range atoms {
		got := tab.Atom(tab.Intern(a))
		if !got.Equal(a) || got.String() != a.String() {
			t.Fatalf("%s: %s decodes to %s", what, a, got)
		}
	}
	return tab
}

// readsText is the serving benchmark's read tenant: a path/2 closure over
// an n-edge chain, a reach/2 closure over an m-hop chain, one exception
// each, and an unrelated module.
func readsText(n, m int) string {
	var b strings.Builder
	b.WriteString("module base {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  edge(c%d, c%d).\n", i, i+1)
	}
	for i := 0; i < m; i++ {
		fmt.Fprintf(&b, "  hop(h%d, h%d).\n", i, i+1)
	}
	b.WriteString("  path(X, Y) :- edge(X, Y).\n  path(X, Z) :- path(X, Y), edge(Y, Z).\n")
	b.WriteString("  reach(X, Y) :- hop(X, Y).\n  reach(X, Z) :- hop(X, Y), reach(Y, Z).\n}\n")
	fmt.Fprintf(&b, "module exc extends base {\n  -path(X, c%d) :- edge(X, c%d).\n  -reach(X, h%d) :- hop(X, h%d).\n}\n", n/2, n/2, m/2, m/2)
	b.WriteString("module items {\n")
	for j := 0; j < n/4; j++ {
		fmt.Fprintf(&b, "  item(d%d).\n", j)
	}
	b.WriteString("  ok(X) :- item(X).\n}\n")
	return b.String()
}

// policyText is the serving benchmark's write tenant: kb facts p(cI), a
// policy deriving ok/1 from each, and an exception component.
func policyText(kb int) string {
	var b strings.Builder
	b.WriteString("module kb {\n")
	for i := 0; i < kb; i++ {
		fmt.Fprintf(&b, "p(c%d).\n", i)
	}
	b.WriteString("}\nmodule policy extends kb { ok(X) :- p(X). }\nmodule exc extends policy {\n-ok(X) :- bad(X).\n}\n")
	return b.String()
}
