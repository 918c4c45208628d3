package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/term"
)

var (
	vx = ast.Var{Name: "X"}
	vy = ast.Var{Name: "Y"}
	vz = ast.Var{Name: "Z"}
)

func lit(pred string, args ...ast.Term) Lit {
	return Lit{Key: ast.PredKey{Name: pred, Arity: len(args)}, Args: args}
}

func nlit(pred string, args ...ast.Term) Lit {
	l := lit(pred, args...)
	l.Neg = true
	return l
}

func edge(st *storage.Store, a, b int) {
	insertAtom(st, ast.Atom{Pred: "e", Args: []ast.Term{ast.Int(int64(a)), ast.Int(int64(b))}})
}

func tcRules() []*Rule {
	return []*Rule{
		{Head: lit("tc", vx, vy), Body: []Lit{lit("e", vx, vy)}},
		{Head: lit("tc", vx, vy), Body: []Lit{lit("e", vx, vz), lit("tc", vz, vy)}},
	}
}

func TestTransitiveClosureChain(t *testing.T) {
	st := storage.NewStore()
	n := 10
	for i := 0; i+1 < n; i++ {
		edge(st, i, i+1)
	}
	derived, err := Eval(st, tcRules(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := n * (n - 1) / 2
	if derived != want {
		t.Errorf("derived %d tc tuples, want %d", derived, want)
	}
	if !containsAtom(st, ast.Atom{Pred: "tc", Args: []ast.Term{ast.Int(0), ast.Int(9)}}) {
		t.Error("tc(0,9) missing")
	}
	if containsAtom(st, ast.Atom{Pred: "tc", Args: []ast.Term{ast.Int(5), ast.Int(5)}}) {
		t.Error("tc(5,5) derived on a chain")
	}
}

func TestTransitiveClosureCycle(t *testing.T) {
	st := storage.NewStore()
	for i := 0; i < 5; i++ {
		edge(st, i, (i+1)%5)
	}
	if _, err := Eval(st, tcRules(), nil, Options{}); err != nil {
		t.Fatal(err)
	}
	// On a cycle every pair (including self-loops) is reachable.
	if got := st.Peek(ast.PredKey{Name: "tc", Arity: 2}).Len(); got != 25 {
		t.Errorf("tc on 5-cycle has %d tuples, want 25", got)
	}
}

// TestSemiNaiveMatchesNaive compares against a reference naive evaluator
// on random graphs.
func TestSemiNaiveMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nn := 4 + rng.Intn(5)
		st := storage.NewStore()
		expect := naiveTC(rng, st, nn)
		if _, err := Eval(st, tcRules(), nil, Options{}); err != nil {
			t.Fatal(err)
		}
		rel := st.Peek(ast.PredKey{Name: "tc", Arity: 2})
		got := 0
		if rel != nil {
			got = rel.Len()
		}
		if got != expect {
			t.Errorf("seed %d: semi-naive %d tuples, naive %d", seed, got, expect)
		}
	}
}

// naiveTC inserts random edges into st and returns the size of the
// transitive closure computed by Floyd–Warshall.
func naiveTC(rng *rand.Rand, st *storage.Store, n int) int {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for k := 0; k < n*2; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if !adj[a][b] {
			adj[a][b] = true
			edge(st, a, b)
		}
	}
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = append([]bool(nil), adj[i]...)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if reach[i][k] && reach[k][j] {
					reach[i][j] = true
				}
			}
		}
	}
	cnt := 0
	for i := range reach {
		for j := range reach[i] {
			if reach[i][j] {
				cnt++
			}
		}
	}
	return cnt
}

func TestBuiltinFilter(t *testing.T) {
	st := storage.NewStore()
	for i := 0; i < 5; i++ {
		insertAtom(st, ast.Atom{Pred: "n", Args: []ast.Term{ast.Int(int64(i))}})
	}
	rules := []*Rule{{
		Head:     lit("big", vx),
		Body:     []Lit{lit("n", vx)},
		Builtins: []ast.Builtin{{Op: ast.GT, L: ast.TermExpr{Term: vx}, R: ast.TermExpr{Term: ast.Int(2)}}},
	}}
	if _, err := Eval(st, rules, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := st.Peek(ast.PredKey{Name: "big", Arity: 1}).Len(); got != 2 {
		t.Errorf("big has %d tuples, want 2 (3 and 4)", got)
	}
}

func TestNAFFilterStratifiedUse(t *testing.T) {
	st := storage.NewStore()
	insertAtom(st, ast.Atom{Pred: "node", Args: []ast.Term{ast.Sym("a")}})
	insertAtom(st, ast.Atom{Pred: "node", Args: []ast.Term{ast.Sym("b")}})
	insertAtom(st, ast.Atom{Pred: "mark", Args: []ast.Term{ast.Sym("a")}})
	rules := []*Rule{{
		Head: lit("unmarked", vx),
		Body: []Lit{lit("node", vx), nlit("mark", vx)},
	}}
	if _, err := Eval(st, rules, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if !containsAtom(st, ast.Atom{Pred: "unmarked", Args: []ast.Term{ast.Sym("b")}}) {
		t.Error("unmarked(b) missing")
	}
	if containsAtom(st, ast.Atom{Pred: "unmarked", Args: []ast.Term{ast.Sym("a")}}) {
		t.Error("unmarked(a) derived")
	}
}

func TestSafetyErrors(t *testing.T) {
	cases := []*Rule{
		{Head: lit("p", vx)},                         // head var unbound
		{Head: lit("p"), Body: []Lit{nlit("q", vx)}}, // NAF var unbound
		{Head: lit("p"), Builtins: []ast.Builtin{{Op: ast.GT, L: ast.TermExpr{Term: vx}, R: ast.TermExpr{Term: ast.Int(0)}}}}, // builtin var unbound
	}
	for _, r := range cases {
		if err := r.CheckSafety(); err == nil {
			t.Errorf("rule %s passed safety", r)
		}
		if _, err := Eval(storage.NewStore(), []*Rule{r}, nil, Options{}); err == nil {
			t.Errorf("Eval accepted unsafe rule %s", r)
		}
	}
	safe := &Rule{Head: lit("p", vx), Body: []Lit{lit("q", vx), nlit("r", vx)}}
	if err := safe.CheckSafety(); err != nil {
		t.Errorf("safe rule rejected: %v", err)
	}
}

func TestBudget(t *testing.T) {
	st := storage.NewStore()
	for i := 0; i < 20; i++ {
		edge(st, i, i+1)
	}
	_, err := Eval(st, tcRules(), nil, Options{MaxDerived: 10})
	if err != ErrBudget {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestRuleString(t *testing.T) {
	r := &Rule{
		Head:     lit("p", vx),
		Body:     []Lit{lit("q", vx), nlit("r", vx)},
		Builtins: []ast.Builtin{{Op: ast.LT, L: ast.TermExpr{Term: vx}, R: ast.TermExpr{Term: ast.Int(9)}}},
	}
	if got := r.String(); got != "p(X) :- q(X), not r(X), X < 9." {
		t.Errorf("String = %q", got)
	}
}

func TestFactsDeriveOnce(t *testing.T) {
	st := storage.NewStore()
	rules := []*Rule{{Head: lit("p", ast.TermExpr{Term: ast.Sym("a")}.Term)}}
	n, err := Eval(st, rules, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("derived %d, want 1", n)
	}
}

func TestLargeChainDepth(t *testing.T) {
	// Exercise many semi-naive rounds.
	st := storage.NewStore()
	n := 200
	for i := 0; i+1 < n; i++ {
		edge(st, i, i+1)
	}
	rules := []*Rule{
		{Head: lit("r", ast.Int(0))},
		{Head: lit("r", vy), Body: []Lit{lit("r", vx), lit("e", vx, vy)}},
	}
	if _, err := Eval(st, rules, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := st.Peek(ast.PredKey{Name: "r", Arity: 1}).Len(); got != n {
		t.Errorf("reached %d nodes, want %d", got, n)
	}
}

var _ = fmt.Sprintf // reserved for debugging helpers

// insertAtom adds a ground atom to st.
func insertAtom(st *storage.Store, a ast.Atom) { st.Rel(a.Key()).Insert(a.Args) }

// containsAtom reports whether st holds the ground atom.
func containsAtom(st *storage.Store, a ast.Atom) bool {
	r := st.Peek(a.Key())
	if r == nil {
		return false
	}
	ids := make([]term.ID, len(a.Args))
	for i, t := range a.Args {
		id, ok := st.Table().Lookup(t)
		if !ok {
			return false
		}
		ids[i] = id
	}
	return r.ContainsIDs(ids)
}

// TestFactsSeedInPlace: a fact is seeded in round 0 just before the rule
// at its At, so the relation holds facts and the round-0 derivations of a
// rule written between them in written order; seeded facts pass the atom
// filter and count as derived tuples.
func TestFactsSeedInPlace(t *testing.T) {
	st := storage.NewStore()
	insertAtom(st, ast.Atom{Pred: "r", Args: []ast.Term{ast.Sym("c")}})
	tab := st.Table()
	p := st.Rel(ast.PredKey{Name: "p", Arity: 1})
	a, b, skip := tab.Intern(ast.Sym("a")), tab.Intern(ast.Sym("b")), tab.Intern(ast.Sym("skip"))
	rules := []*Rule{{Head: lit("p", vx), Body: []Lit{lit("r", vx)}}}
	facts := []Fact{{Rel: p, Args: []term.ID{a}, At: 0}, {Rel: p, Args: []term.ID{skip}, At: 1}, {Rel: p, Args: []term.ID{b}, At: 1}}
	n, err := Eval(st, rules, facts, Options{AtomFilter: func(args []term.ID) bool { return args[0] != skip }})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("derived %d, want 3 (two seeded facts and p(c))", n)
	}
	var got []string
	for i := 0; i < p.Len(); i++ {
		got = append(got, tab.Term(p.TupleIDs(i)[0]).String())
	}
	if fmt.Sprint(got) != "[a c b]" {
		t.Errorf("p holds %v, want [a c b]", got)
	}
}
