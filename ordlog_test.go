package ordlog_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"testing"

	ordlog "repro"
)

func ExampleParseProgram() {
	prog, err := ordlog.ParseProgram(`
module birds {
  bird(penguin). bird(pigeon).
  fly(X) :- bird(X).
  -ground_animal(X) :- bird(X).
}
module arctic extends birds {
  ground_animal(penguin).
  -fly(X) :- ground_animal(X).
}
`)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := ordlog.NewEngineCtx(context.Background(), prog, ordlog.Config{})
	if err != nil {
		log.Fatal(err)
	}
	m, err := eng.LeastModelCtx(context.Background(), "arctic")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(m)
	// Output:
	// {bird(penguin), bird(pigeon), -fly(penguin), fly(pigeon), ground_animal(penguin), -ground_animal(pigeon)}
}

func ExampleModel_Query() {
	prog, _ := ordlog.ParseProgram(`
parent(ann, bob). parent(bob, carl).
anc(X, Y) :- parent(X, Y).
anc(X, Y) :- parent(X, Z), anc(Z, Y).
`)
	eng, _ := ordlog.NewEngineCtx(context.Background(), prog, ordlog.Config{})
	m, _ := eng.LeastModelCtx(context.Background(), "main")
	res, _ := ordlog.Parse(`?- anc(ann, X).`)
	var names []string
	for _, b := range m.Query(res.Queries[0]) {
		names = append(names, b["X"].String())
	}
	sort.Strings(names)
	fmt.Println(names)
	// Output:
	// [bob carl]
}

func ExampleEngine_StableModelsCtx() {
	prog, _ := ordlog.ParseProgram(`
module c2 { a. b. c. }
module c1 extends c2 {
  -a :- b, c.
  -b :- a.
  -b :- -b.
}
`)
	eng, _ := ordlog.NewEngineCtx(context.Background(), prog, ordlog.Config{})
	ms, _ := eng.StableModelsCtx(context.Background(), "c1", ordlog.EnumOptions{})
	var out []string
	for _, m := range ms {
		out = append(out, m.String())
	}
	sort.Strings(out)
	for _, s := range out {
		fmt.Println(s)
	}
	// Output:
	// {-a, b, c}
	// {a, -b, c}
}

func ExampleOV() {
	// Classical Datalog with an explicit closed world: negative facts are
	// derived, not merely absent.
	prog, _ := ordlog.ParseProgram(`
edge(a, b).
reach(a).
reach(Y) :- reach(X), edge(X, Y).
`)
	ov, _ := ordlog.OV("main", prog.Components[0].Rules)
	eng, _ := ordlog.NewEngineCtx(context.Background(), ov, ordlog.Config{})
	m, _ := eng.LeastModelCtx(context.Background(), "main")
	lit, _ := ordlog.ParseLiteral("-reach(b)")
	fmt.Println(m.Holds(lit), m.Value(lit.Atom))
	lit2, _ := ordlog.ParseLiteral("reach(b)")
	fmt.Println(m.Holds(lit2), m.Value(lit2.Atom))
	// Output:
	// false T
	// true T
}

func ExampleEngine_ProveCtx() {
	prog, _ := ordlog.ParseProgram(`
module general { safe(X) :- checked(X). }
module audit extends general {
  checked(ledger).
  -safe(X) :- flagged(X).
  flagged(ledger).
}
`)
	eng, _ := ordlog.NewEngineCtx(context.Background(), prog, ordlog.Config{})
	lit, _ := ordlog.ParseLiteral("-safe(ledger)")
	ok, _ := eng.ProveCtx(context.Background(), "audit", lit)
	fmt.Println(ok)
	// Output:
	// true
}

func TestMergeFacts(t *testing.T) {
	prog, err := ordlog.ParseProgram(`
module rules { anc(X, Y) :- parent(X, Y). }
module data extends rules { }
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := ordlog.MergeFacts(prog, "data", "parent(a, b). parent(b, c)."); err != nil {
		t.Fatal(err)
	}
	eng, err := ordlog.NewEngineCtx(context.Background(), prog, ordlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.LeastModelCtx(context.Background(), "data")
	if err != nil {
		t.Fatal(err)
	}
	lit, err := ordlog.ParseLiteral("anc(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Holds(lit) {
		t.Errorf("merged facts not used: %s", m)
	}
	if err := ordlog.MergeFacts(prog, "zzz", "a."); err == nil {
		t.Error("unknown component accepted")
	}
	if err := ordlog.MergeFacts(prog, "data", "module x { a. }"); err == nil {
		t.Error("module-bearing fact source accepted")
	}
	if err := ordlog.MergeFacts(prog, "data", ""); err != nil {
		t.Errorf("empty fact source rejected: %v", err)
	}
	if err := ordlog.MergeFacts(prog, "data", "p :- q :-."); err == nil {
		t.Error("syntax error not propagated")
	}
	if err := ordlog.MergeFacts(prog, "data", "anc(X, X) :- parent(X, b)."); err == nil || !strings.Contains(err.Error(), "not a ground fact") {
		t.Errorf("rule in a fact source: err = %v, want \"not a ground fact\"", err)
	}
	for src, want := range map[string]string{"module x { a. }": "module-free", "p(X).": "not a ground fact"} {
		if _, err := ordlog.ParseFacts(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseFacts(%q) = %v, want an error containing %q", src, err, want)
		}
	}
}

func TestThreeVFacade(t *testing.T) {
	prog, err := ordlog.ParseProgram(`
fly(X) :- bird(X).
-fly(X) :- penguin(X).
bird(tux). penguin(tux). bird(robin).
`)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := ordlog.ThreeV(prog.Components[0].Rules)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ordlog.NewEngineCtx(context.Background(), tv, ordlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Under 3V the least model is very cautious: the reflexive rules of
	// the general component permanently compete with the CWA facts, so
	// lfp(V) derives little; the intended answers are the stable models
	// (exactly why §4's examples are read under stable semantics).
	least, err := eng.LeastModelCtx(context.Background(), "exceptions")
	if err != nil {
		t.Fatal(err)
	}
	noFly, err := ordlog.ParseLiteral("-fly(tux)")
	if err != nil {
		t.Fatal(err)
	}
	if !least.Holds(noFly) {
		t.Errorf("least model misses the applied exception: %s", least)
	}
	ms, err := eng.StableModelsCtx(context.Background(), "exceptions", ordlog.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("stable models = %d, want 1", len(ms))
	}
	m := ms[0]
	flies, err := ordlog.ParseLiteral("fly(robin)")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Holds(noFly) || !m.Holds(flies) {
		t.Errorf("3V exception semantics wrong: %s", m)
	}
}

func TestReasonFacade(t *testing.T) {
	prog, err := ordlog.ParseProgram(`
module c2 { a. b. c. }
module c1 extends c2 { -a :- b, c. -b :- a. -b :- -b. }
`)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ordlog.NewEngineCtx(context.Background(), prog, ordlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := eng.ReasonCtx(context.Background(), "c1", ordlog.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cons.NumModels() != 2 {
		t.Errorf("models = %d", cons.NumModels())
	}
	c, err := ordlog.ParseLiteral("c")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ordlog.ParseLiteral("a")
	if err != nil {
		t.Fatal(err)
	}
	if !cons.Cautious(c) || cons.Cautious(a) || !cons.Brave(a) {
		t.Error("cautious/brave verdicts wrong")
	}
	lits := cons.CautiousLiterals()
	var s []string
	for _, l := range lits {
		s = append(s, l.String())
	}
	if strings.Join(s, ",") != "c" {
		t.Errorf("cautious literals = %v", s)
	}
}

func TestParseFiles(t *testing.T) {
	dir := t.TempDir()
	f1 := dir + "/rules.olp"
	f2 := dir + "/data.olp"
	if err := osWriteFile(f1, "module kb { anc(X, Y) :- parent(X, Y). }\n"); err != nil {
		t.Fatal(err)
	}
	if err := osWriteFile(f2, "module kb { parent(a, b). }\n?- anc(a, X).\n"); err != nil {
		t.Fatal(err)
	}
	res, err := ordlog.ParseFiles(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Components) != 1 {
		t.Fatalf("components = %d, want 1 (module reopened across files)", len(res.Program.Components))
	}
	if len(res.Queries) != 1 {
		t.Fatalf("queries = %d", len(res.Queries))
	}
	eng, err := ordlog.NewEngineCtx(context.Background(), res.Program, ordlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.LeastModelCtx(context.Background(), "kb")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Query(res.Queries[0]); len(got) != 1 || got[0]["X"].String() != "b" {
		t.Errorf("answers = %v", got)
	}
	if _, err := ordlog.ParseFiles(dir + "/missing.olp"); err == nil {
		t.Error("missing file accepted")
	}
}

func osWriteFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestParseFileAndFullMode(t *testing.T) {
	res, err := ordlog.ParseFile("testdata/penguin.olp")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 1 {
		t.Errorf("queries = %d", len(res.Queries))
	}
	cfg := ordlog.Config{}
	cfg.Ground.Mode = ordlog.ModeFull
	cfg.Ground.MaxDepth = -1
	eng, err := ordlog.NewEngineCtx(context.Background(), res.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.LeastModelCtx(context.Background(), "arctic"); err != nil {
		t.Fatal(err)
	}
}
