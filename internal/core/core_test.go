package core_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/oracle/parsetest"
	"repro/internal/parser"
	"repro/internal/stable"
)

func engineOf(t *testing.T, src string) *core.Engine {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngineCtx(context.Background(), p, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

const fig1 = `
module birds {
  bird(penguin). bird(pigeon).
  fly(X) :- bird(X).
  -ground_animal(X) :- bird(X).
}
module arctic extends birds {
  ground_animal(penguin).
  -fly(X) :- ground_animal(X).
}
`

func TestDefaultComponent(t *testing.T) {
	eng := engineOf(t, fig1)
	got, err := eng.DefaultComponent()
	if err != nil || got != "arctic" {
		t.Errorf("DefaultComponent = %q, %v; want arctic", got, err)
	}
	// Two minimal components, one named main: main wins.
	eng2 := engineOf(t, "module main { a. }\nmodule other { b. }\n")
	got2, err := eng2.DefaultComponent()
	if err != nil || got2 != "main" {
		t.Errorf("DefaultComponent = %q, %v; want main", got2, err)
	}
	// Two minimal components, neither main: error.
	eng3 := engineOf(t, "module x { a. }\nmodule y { b. }\n")
	if _, err := eng3.DefaultComponent(); err == nil {
		t.Error("ambiguous default component accepted")
	}
}

func TestLeastModelAndValues(t *testing.T) {
	eng := engineOf(t, fig1)
	m, err := eng.LeastModelCtx(context.Background(), "") // default component
	if err != nil {
		t.Fatal(err)
	}
	if m.ComponentName() != "arctic" {
		t.Errorf("model component = %q", m.ComponentName())
	}
	lit := parsetest.MustParseLiteral("fly(penguin)")
	if got := m.Value(lit.Atom); got.String() != "F" {
		t.Errorf("fly(penguin) = %v", got)
	}
	if !m.Holds(lit.Complement()) || m.Holds(lit) {
		t.Error("Holds wrong")
	}
	// Atoms outside the relevant base are undefined.
	out := parsetest.MustParseLiteral("fly(elephant)")
	if got := m.Value(out.Atom); got.String() != "U" {
		t.Errorf("out-of-base atom = %v", got)
	}
	if m.Len() != 6 {
		t.Errorf("Len = %d", m.Len())
	}
	if !m.Total() {
		t.Error("Fig.1 least model in arctic should be total on the relevant base")
	}
}

func TestUnknownComponent(t *testing.T) {
	eng := engineOf(t, fig1)
	if _, err := eng.LeastModelCtx(context.Background(), "nope"); err == nil {
		t.Error("unknown component accepted")
	}
}

func TestQueryJoins(t *testing.T) {
	eng := engineOf(t, `
parent(ann, bob). parent(bob, carl). parent(ann, dora).
anc(X, Y) :- parent(X, Y).
anc(X, Y) :- parent(X, Z), anc(Z, Y).
`)
	m, err := eng.LeastModelCtx(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	res, err := parser.Parse("?- anc(ann, X).")
	if err != nil {
		t.Fatal(err)
	}
	bs := m.Query(res.Queries[0])
	if len(bs) != 3 {
		t.Fatalf("got %d answers: %v", len(bs), bs)
	}
	names := map[string]bool{}
	for _, b := range bs {
		names[b["X"].String()] = true
	}
	for _, want := range []string{"bob", "carl", "dora"} {
		if !names[want] {
			t.Errorf("missing answer %s", want)
		}
	}
	// Two-literal join with a builtin.
	res2, err := parser.Parse("?- parent(ann, X), parent(X, Y), X != Y.")
	if err != nil {
		t.Fatal(err)
	}
	bs2 := m.Query(res2.Queries[0])
	if len(bs2) != 1 || bs2[0]["X"].String() != "bob" || bs2[0]["Y"].String() != "carl" {
		t.Errorf("join answers = %v", bs2)
	}
	// Ground query returns one empty binding when it holds.
	res3, err := parser.Parse("?- anc(ann, carl).")
	if err != nil {
		t.Fatal(err)
	}
	if bs3 := m.Query(res3.Queries[0]); len(bs3) != 1 {
		t.Errorf("ground query answers = %v", bs3)
	}
	// And none when it does not.
	res4, err := parser.Parse("?- anc(carl, ann).")
	if err != nil {
		t.Fatal(err)
	}
	if bs4 := m.Query(res4.Queries[0]); len(bs4) != 0 {
		t.Errorf("false ground query answers = %v", bs4)
	}
}

func TestQueryNegativeLiterals(t *testing.T) {
	eng := engineOf(t, fig1)
	m, err := eng.LeastModelCtx(context.Background(), "arctic")
	if err != nil {
		t.Fatal(err)
	}
	res, err := parser.Parse("?- -fly(X).")
	if err != nil {
		t.Fatal(err)
	}
	bs := m.Query(res.Queries[0])
	if len(bs) != 1 || bs[0]["X"].String() != "penguin" {
		t.Errorf("negative query answers = %v", bs)
	}
}

func TestStableAndAFThroughEngine(t *testing.T) {
	eng := engineOf(t, `
module c2 { a. b. c. }
module c1 extends c2 { -a :- b, c. -b :- a. -b :- -b. }
`)
	st, err := eng.StableModelsCtx(context.Background(), "c1", stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 2 {
		t.Errorf("stable models = %d", len(st))
	}
	af, err := eng.AssumptionFreeModelsCtx(context.Background(), "c1", stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(af) != 3 {
		t.Errorf("af models = %d", len(af))
	}
}

func TestCheckModelAndInterpFromLiterals(t *testing.T) {
	eng := engineOf(t, fig1)
	lits := []ast.Literal{
		parsetest.MustParseLiteral("bird(penguin)"),
		parsetest.MustParseLiteral("bird(pigeon)"),
		parsetest.MustParseLiteral("ground_animal(penguin)"),
		parsetest.MustParseLiteral("-ground_animal(pigeon)"),
		parsetest.MustParseLiteral("fly(pigeon)"),
		parsetest.MustParseLiteral("-fly(penguin)"),
	}
	m, err := eng.InterpFromLiterals("arctic", lits)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := eng.CheckModel(m); !ok {
		t.Errorf("paper model rejected: %s", why)
	}
	if !eng.CheckAssumptionFree(m) {
		t.Error("paper model not assumption free")
	}
	// A wrong interpretation is rejected with a reason.
	bad, err := eng.InterpFromLiterals("arctic", lits[:1])
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := eng.CheckModel(bad); ok || why == "" {
		t.Error("bad model accepted or reason missing")
	}
	// Unknown atoms are reported.
	if _, err := eng.InterpFromLiterals("arctic", []ast.Literal{parsetest.MustParseLiteral("zzz")}); err == nil {
		t.Error("unknown literal accepted")
	}
}

func TestExplain(t *testing.T) {
	eng := engineOf(t, fig1)
	m, err := eng.LeastModelCtx(context.Background(), "arctic")
	if err != nil {
		t.Fatal(err)
	}
	lines := m.Explain(parsetest.MustParseLiteral("fly(penguin)").Atom)
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"overruled", "applied", "component birds", "component arctic"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Explain missing %q:\n%s", want, joined)
		}
	}
	none := m.Explain(parsetest.MustParseLiteral("zzz").Atom)
	if len(none) != 1 || !strings.Contains(none[0], "not in the relevant Herbrand base") {
		t.Errorf("Explain on unknown atom = %v", none)
	}
}

func TestModelJSON(t *testing.T) {
	eng := engineOf(t, fig1)
	m, err := eng.LeastModelCtx(context.Background(), "arctic")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.JSON(false)
	if err != nil {
		t.Fatal(err)
	}
	var decoded core.ModelJSON
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b)
	}
	if decoded.Component != "arctic" || !decoded.Total {
		t.Errorf("metadata wrong: %+v", decoded)
	}
	if len(decoded.True) != 4 || len(decoded.False) != 2 {
		t.Errorf("literal counts wrong: %+v", decoded)
	}
	if len(decoded.Undefined) != 0 {
		t.Errorf("undefined included without request")
	}
	// With undefined atoms included.
	b2, err := m.JSON(true)
	if err != nil {
		t.Fatal(err)
	}
	var d2 core.ModelJSON
	if err := json.Unmarshal(b2, &d2); err != nil {
		t.Fatal(err)
	}
	if len(d2.Undefined) != 0 { // total model: still none
		t.Errorf("total model has undefined atoms: %+v", d2)
	}
	// Bindings JSON.
	res, err := parser.Parse("?- fly(X).")
	if err != nil {
		t.Fatal(err)
	}
	jb, err := core.BindingsJSON(res.Queries[0], m.Query(res.Queries[0]))
	if err != nil {
		t.Fatal(err)
	}
	var q struct {
		Query   string              `json:"query"`
		Answers []map[string]string `json:"answers"`
	}
	if err := json.Unmarshal(jb, &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Answers) != 1 || q.Answers[0]["X"] != "pigeon" {
		t.Errorf("answers = %+v", q)
	}
}

func TestProveExplainFacade(t *testing.T) {
	eng := engineOf(t, fig1)
	lit := parsetest.MustParseLiteral("-fly(penguin)")
	tree, ok, err := eng.ProveExplainCtx(context.Background(), "arctic", lit)
	if err != nil || !ok {
		t.Fatalf("ProveExplain: %v %v", ok, err)
	}
	if !strings.Contains(tree, "proved -fly(penguin)") {
		t.Errorf("tree = %q", tree)
	}
	// Unprovable literal.
	_, ok2, err := eng.ProveExplainCtx(context.Background(), "arctic", parsetest.MustParseLiteral("fly(penguin)"))
	if err != nil || ok2 {
		t.Errorf("fly(penguin) explained: %v %v", ok2, err)
	}
	// Out-of-base atom.
	_, ok3, err := eng.ProveExplainCtx(context.Background(), "arctic", parsetest.MustParseLiteral("zzz"))
	if err != nil || ok3 {
		t.Errorf("zzz explained: %v %v", ok3, err)
	}
}

func TestLeastModelCached(t *testing.T) {
	eng := engineOf(t, fig1)
	m1, err := eng.LeastModelCtx(context.Background(), "arctic")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := eng.LeastModelCtx(context.Background(), "arctic")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("least model not cached (distinct pointers)")
	}
	other, err := eng.LeastModelCtx(context.Background(), "birds")
	if err != nil {
		t.Fatal(err)
	}
	if other == m1 {
		t.Error("cache keyed wrongly across components")
	}
}

func TestEngineStats(t *testing.T) {
	eng := engineOf(t, fig1)
	if eng.NumAtoms() == 0 || eng.NumGroundRules() == 0 {
		t.Error("stats empty")
	}
	if eng.Source() == nil || eng.Grounded() == nil {
		t.Error("accessors nil")
	}
}

// TestPartialGroundConfigKeepsCompoundAnswers: a Config.Ground that sets
// only some fields grounds like the zero one for the rest — MaxDepth 0 is
// the deepest program term, as every zero budget is its default — so a
// compound answer is not silently dropped.
func TestPartialGroundConfigKeepsCompoundAnswers(t *testing.T) {
	p, err := parser.ParseProgram("p(f(a)).\nq(X) :- p(X).\n")
	if err != nil {
		t.Fatal(err)
	}
	want := parsetest.MustParseLiteral("q(f(a))")
	for _, tc := range []struct {
		name string
		opts ground.Options
	}{
		{"zero", ground.Options{}},
		{"MaxAtoms only", ground.Options{MaxAtoms: 1 << 21}},
		{"full mode only", ground.Options{Mode: ground.ModeFull}},
		{"MaxDepth -1", ground.Options{MaxDepth: -1, MaxInstances: 1 << 22}},
	} {
		eng, err := core.NewEngineCtx(context.Background(), p, core.Config{Ground: tc.opts})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m, err := eng.LeastModelCtx(context.Background(), "main")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !m.Holds(want) {
			t.Errorf("%s: least model %s lacks %s", tc.name, m, want)
		}
	}
}
