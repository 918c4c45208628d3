package parser

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// addTestdataSeeds seeds the corpus with every .olp program shipped in
// testdata, so the fuzzers start from realistic multi-module inputs
// (inheritance chains, arithmetic builtins, queries) rather than only the
// hand-picked snippets below.
func addTestdataSeeds(f *testing.F) []string {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.olp"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no testdata/*.olp seeds found")
	}
	var srcs []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
		srcs = append(srcs, string(b))
	}
	return srcs
}

// FuzzParse checks the robustness invariants on arbitrary input: the
// parser never panics, and everything it accepts survives a full
// parse→print→reparse round trip — the reprint parses, the printer is
// idempotent, and the reparsed program has the same component, rule and
// query structure as the first parse.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"a.",
		"p(X) :- q(X).",
		"-p(a, f(b, 2)) :- q(X), X > 1 + 2.",
		"module m { a. }",
		"module c1 extends c2 { -fly(X) :- ga(X). }\nmodule c2 { fly(X) :- bird(X). }",
		"order a < b.",
		"?- p(X), X != a.",
		"p :- not q.",
		"t :- a(X), X mod 2 = 1.",
		"% comment\na.",
		"p(f(g(h(a)))).",
		"module m extends m { a. }",
		"p :- .",
		"p(",
		"~x.",
		"a :- 1 < 2.",
		"a.\x00 b. c(",
		"a.\n% note \x00 b.\nc.",
		"'a\x00b'. c.",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	addTestdataSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		res, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		printed := res.Program.String()
		for _, q := range res.Queries {
			printed += q.String() + "\n"
		}
		res2, err := Parse(printed)
		if err != nil {
			t.Fatalf("round trip failed to parse:\ninput: %q\nprinted: %q\nerr: %v", src, printed, err)
		}
		// Structural round-trip invariant: the reparse preserves the
		// component count, per-component rule counts, and query count.
		if got, want := len(res2.Program.Components), len(res.Program.Components); got != want {
			t.Fatalf("round trip changed component count %d -> %d:\ninput: %q", want, got, src)
		}
		for i, c := range res.Program.Components {
			c2 := res2.Program.Components[i]
			if c2.Name != c.Name || len(c2.Rules) != len(c.Rules) {
				t.Fatalf("round trip changed component %d: %s/%d rules -> %s/%d rules\ninput: %q",
					i, c.Name, len(c.Rules), c2.Name, len(c2.Rules), src)
			}
		}
		if len(res2.Queries) != len(res.Queries) {
			t.Fatalf("round trip changed query count %d -> %d:\ninput: %q",
				len(res.Queries), len(res2.Queries), src)
		}
		printed2 := res2.Program.String()
		for _, q := range res2.Queries {
			printed2 += q.String() + "\n"
		}
		if printed != printed2 {
			t.Fatalf("printer not idempotent:\nfirst:  %q\nsecond: %q", printed, printed2)
		}
	})
}

// FuzzParseRule does the same for single clauses. Its corpus is seeded
// with every individual rule of the testdata programs in addition to the
// hand-picked clauses.
func FuzzParseRule(f *testing.F) {
	for _, s := range []string{
		"a.", "p(X) :- q(X).", "-p :- q, -r.", "t :- a(X), X > -3.",
		"p(f(a, g(b))).", "x :- y, 1 = 1.",
	} {
		f.Add(s)
	}
	for _, src := range addTestdataSeeds(f) {
		res, err := Parse(src)
		if err != nil {
			continue // a testdata file the parser rejects is caught elsewhere
		}
		for _, c := range res.Program.Components {
			for _, r := range c.Rules {
				f.Add(r.String())
			}
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, err := ParseRule(src)
		if err != nil {
			return
		}
		r2, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("round trip failed: %q -> %q: %v", src, r.String(), err)
		}
		// Structural invariant: the reparse preserves head sign and body
		// length, so printing cannot silently drop literals.
		if r2.Head.Neg != r.Head.Neg || len(r2.Body) != len(r.Body) {
			t.Fatalf("round trip changed structure: %q -> %q", src, r.String())
		}
		if r.String() != r2.String() {
			t.Fatalf("printer not idempotent: %q vs %q", r.String(), r2.String())
		}
	})
}

// TestPrinterIdempotentOnCorpus runs the fuzz property over a fixed corpus
// so it executes in ordinary test runs too.
func TestPrinterIdempotentOnCorpus(t *testing.T) {
	corpus := []string{
		"module c2 {\n  bird(penguin).\n  fly(X) :- bird(X).\n}\nmodule c1 extends c2 {\n  -fly(X) :- ground_animal(X).\n}\n",
		"take_loan :- inflation(X), loan_rate(Y), X > Y + 2.\n",
		"p(f(X)) :- q(X), not r(X), X >= 0.\n?- p(Y).\n",
	}
	for _, src := range corpus {
		res, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := res.Program.String()
		res2, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if !strings.Contains(printed, "module") && len(res.Program.Components) != len(res2.Program.Components) {
			t.Error("component count changed")
		}
		if printed != res2.Program.String() {
			t.Errorf("printer not idempotent for %q", src)
		}
	}
}
