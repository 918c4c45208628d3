package core

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/unify"
)

// queryScanOracle is Model.Query as it was before the memoised index: it
// indexes every literal of a model, sorts every bucket canonically,
// scans whole buckets through unify.MatchAtoms and deduplicates rows by a
// rendered signature — once per call. It is kept as the reference the
// indexed evaluation must reproduce, order included.
func queryScanOracle(lits []ast.Literal, q ast.Query) []Binding {
	type key struct {
		k   ast.PredKey
		neg bool
	}
	index := make(map[key][]ast.Atom)
	for _, l := range lits {
		index[key{l.Atom.Key(), l.Neg}] = append(index[key{l.Atom.Key(), l.Neg}], l.Atom)
	}
	for _, atoms := range index {
		sort.Slice(atoms, func(i, j int) bool { return ast.CompareAtoms(atoms[i], atoms[j]) < 0 })
	}
	var out []Binding
	seen := make(map[string]bool)
	vars := q.Vars()
	s := unify.NewSubst()
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Body) {
			for _, b := range q.Builtins {
				if !b.HoldsUnder(s.Resolve) {
					return
				}
			}
			bind := make(Binding, len(vars))
			sig := ""
			for _, v := range vars {
				t := s.Apply(v)
				bind[v.Name] = t
				sig += "\x00" + t.String()
			}
			if !seen[sig] {
				seen[sig] = true
				out = append(out, bind)
			}
			return
		}
		l := q.Body[i]
		for _, cand := range index[key{l.Atom.Key(), l.Neg}] {
			mark := s.Mark()
			if unify.MatchAtoms(s, l.Atom, cand) {
				rec(i + 1)
			}
			s.Undo(mark)
		}
	}
	rec(0)
	return out
}

func parseGoal(t testing.TB, src string) ast.Query {
	t.Helper()
	res, err := parser.Parse("?- " + src + ".")
	if err != nil {
		t.Fatalf("goal %q: %v", src, err)
	}
	if len(res.Queries) != 1 {
		t.Fatalf("goal %q: want exactly one query", src)
	}
	return res.Queries[0]
}

// oracleJSON renders the oracle's answer the way every consumer sees one.
func oracleJSON(t testing.TB, m *Model, q ast.Query) []byte {
	t.Helper()
	want, err := BindingsJSON(q, queryScanOracle(m.Literals(), q))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// shapesSrc has what the corpus lacks: compound and integer first
// arguments, nested terms, zero-arity predicates of both signs, and
// arity-3 and arity-4 predicates whose leading columns tie, listed out of
// canonical order and mixing integers, symbols and compounds in every
// column, so every column of a bucket's sort decides some order.
const shapesSrc = `
module base {
  n(1, 2). n(2, 3). n(3, 4). n(3, 1). n(10, 2).
  t(f(a), a). t(f(b), a). t(f(a), b). t(g(a, b), a). t(g(b, b), b). t(a, f(a)). t(b, b). t(7, 7).
  w(f(g(a, 1)), 1). w(f(g(b, 2)), 2). w(f(h), 3).
  r3(a, 1, f(a)). r3(b, a, a). r3(a, 1, b). r3(2, b, f(1)). r3(a, f(b), c). r3(a, 1, 2).
  r3(f(a), 1, a). r3(a, 0, c). r3(2, b, a). r3(a, f(a), c). r3(2, 10, a). r3(a, 1, f(1)).
  r4(a, b, 1, x). r4(1, b, 1, x). r4(a, b, f(1), 2). r4(a, b, 1, f(x)). r4(a, c, 1, x).
  r4(g(a, 1), b, c, d). r4(a, b, 0, y). r4(1, b, 1, 3). r4(a, b, 1, 7). r4(a, b, 1, g(x, 1)).
  r4(1, a, 1, x). r4(a, b, c, x). r4(a, 2, 1, x).
  flag.
  twice(X, Y) :- n(X, Y), n(Y, Z).
  span(X, Y, Z, W) :- r3(X, Y, Z), r3(Z, W, V).
}
module exc extends base {
  -n(3, 1).
  -flag2.
  -t(f(X), b) :- t(f(X), a).
  -r3(a, 1, b).
  -r4(X, b, 1, Y) :- r4(X, b, 1, Y), r3(X, 1, Z).
}
`

// Terms the parser produces never need a JSON escape, terms built in Go
// can: every string must come out as encoding/json writes it.
func TestAppendJSONString(t *testing.T) {
	for _, s := range []string{"", "c3", "f(a, 1)", `q"uote`, `back\slash`, "<x&y>", "tab\t", "nl\n", "\x01", "é", " ", "bad\xffutf8", "\x7f"} {
		got := AppendJSONString(nil, s)
		ref, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("AppendJSONString(%q) = %s, encoding/json gives %s", s, got, ref)
		}
	}
}

// BindingsJSON lays its bytes out by hand; the reference is the
// encoding/json rendering of the same shape it used to be.
func TestBindingsJSONMatchesEncodingJSON(t *testing.T) {
	ref := func(q ast.Query, bs []Binding) []byte {
		type row map[string]string
		out := struct {
			Query   string `json:"query"`
			Answers []row  `json:"answers"`
		}{Query: q.String(), Answers: []row{}}
		for _, b := range bs {
			r := make(row, len(b))
			for k, v := range b {
				r[k] = v.String()
			}
			out.Answers = append(out.Answers, r)
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	odd := ast.Compound{Functor: "f", Args: []ast.Term{ast.Sym(`<a&"b">`), ast.Int(-4), ast.Sym("é\n")}}
	cases := []struct {
		goal string
		bs   []Binding
	}{
		{"p(X)", nil},
		{"p(a)", []Binding{{}}},
		{"p(X)", []Binding{{"X": ast.Sym("a")}, {"X": ast.Int(3)}}},
		{"p(Zed, Alpha, M), Alpha < M", []Binding{
			{"Zed": odd, "Alpha": ast.Int(1), "M": ast.Int(2)},
			{"Zed": ast.Sym("z"), "Alpha": ast.Int(0), "M": odd},
		}},
		{"p(X, Y)", []Binding{{"X": ast.Sym("a")}, {"Y": ast.Sym("b"), "X": ast.Sym("c")}}}, // ragged rows
	}
	for _, c := range cases {
		q := parseGoal(t, c.goal)
		got, err := BindingsJSON(q, c.bs)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref(q, c.bs); !bytes.Equal(got, want) {
			t.Errorf("BindingsJSON(%s) differs from encoding/json\n got: %s\nwant: %s", c.goal, got, want)
		}
	}
}

// TestQueryConcurrentFirstUse issues the first queries against a freshly
// memoised model from 16 goroutines at once — some on the same predicate,
// some on distinct ones. Every goroutine must get the oracle's answer and
// every bucket must be built exactly once. Run under -race.
func TestQueryConcurrentFirstUse(t *testing.T) {
	prog, err := parser.ParseProgram(shapesSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Each goal scans exactly one bucket; together they name five.
	goals := []string{"n(X, Y)", "n(3, X)", "-n(X, Y)", "t(X, X)", "t(f(X), Y)", "w(X, N)", "twice(X, Y)", "n(X, 2)"}
	const buckets = 5 // n+, n-, t+, w+, twice+
	models := map[string]func(*Snapshot) *Model{
		"component": func(s *Snapshot) *Model {
			m, err := s.LeastModelCtx(ctx, "exc")
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		// One slice whose goal mentions every predicate, so its model can
		// answer each single-literal goal above.
		"slice": func(s *Snapshot) *Model {
			goal := parseGoal(t, "n(A, B), -n(C, D), t(E, F), w(G, H), twice(I, J)")
			m, err := s.sliceModel(ctx, 1, goal.Body)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
	for name, build := range models {
		t.Run(name, func(t *testing.T) {
			eng, err := NewEngineCtx(context.Background(), prog, Config{GoalDirected: true})
			if err != nil {
				t.Fatal(err)
			}
			m := build(eng.Current())
			queries := make([]ast.Query, len(goals))
			want := make([][]byte, len(goals))
			for i, g := range goals {
				queries[i] = parseGoal(t, g)
				want[i] = oracleJSON(t, m, queries[i])
			}
			before := obs.Default().Snap()
			const workers = 16
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					for k := 0; k < len(goals); k++ {
						i := (w + k) % len(goals)
						got, err := BindingsJSON(queries[i], m.Query(queries[i]))
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(got, want[i]) {
							t.Errorf("worker %d: %s diverged from the oracle\n got: %s\nwant: %s", w, goals[i], got, want[i])
						}
					}
				}(w)
			}
			close(start)
			wg.Wait()
			if got := obs.Default().Snap().Diff(before)["core.index.builds"]; got != buckets {
				t.Errorf("core.index.builds = %d after %d workers x %d goals, want %d: a bucket was built twice or not at all",
					got, workers, len(goals), buckets)
			}
			if len(m.idx) != buckets {
				t.Errorf("model holds %d buckets, want %d", len(m.idx), buckets)
			}
		})
	}
}

// Ground questions are membership probes of the atom table: they must not
// build a bucket at all.
func TestGroundQueryBuildsNoBucket(t *testing.T) {
	prog, err := parser.ParseProgram(shapesSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineCtx(context.Background(), prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.LeastModelCtx(context.Background(), "exc")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"n(1, 2)", "-n(3, 1)", "flag", "t(f(a), a), n(2, 3)", "n(9, 9)"} {
		q := parseGoal(t, g)
		if got, _ := BindingsJSON(q, m.Query(q)); !bytes.Equal(got, oracleJSON(t, m, q)) {
			t.Errorf("%s diverged from the scan oracle: %s", g, got)
		}
	}
	if len(m.idx) != 0 {
		t.Errorf("ground queries built %d buckets, want none", len(m.idx))
	}
}

// A warm goal-directed query is a least-model memo hit and must be counted
// as one: the slice path shares core.least.* and core.view.* with the
// component path.
func TestGoalDirectedQueryCountsMemo(t *testing.T) {
	prog, err := parser.ParseProgram(shapesSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineCtx(context.Background(), prog, Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := parseGoal(t, "n(3, X)")
	before := obs.Default().Snap()
	if _, err := eng.Current().QueryCtx(ctx, "exc", q); err != nil {
		t.Fatal(err)
	}
	cold := obs.Default().Snap()
	d := cold.Diff(before)
	if d["core.least.computed"] != 1 || d["core.least.hits"] != 0 || d["core.view.builds"] != 1 {
		t.Fatalf("cold goal-directed query: computed %d, hits %d, view builds %d; want 1, 0, 1",
			d["core.least.computed"], d["core.least.hits"], d["core.view.builds"])
	}
	if _, err := eng.Current().QueryCtx(ctx, "exc", q); err != nil {
		t.Fatal(err)
	}
	d = obs.Default().Snap().Diff(cold)
	if d["core.least.hits"] != 1 || d["core.least.computed"] != 0 || d["core.view.builds"] != 0 {
		t.Fatalf("warm goal-directed query: hits %d, computed %d, view builds %d; want 1, 0, 0",
			d["core.least.hits"], d["core.least.computed"], d["core.view.builds"])
	}
}
