package core

import (
	"slices"
	"sync"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/term"
)

// Answering a query from a memoised model. A model is immutable, so what a
// query needs of it is built at most once and kept on the *Model for the
// model's lifetime: per (predicate, sign) a bucket of the member literals'
// argument ids in canonical ast.CompareAtoms order. Buckets are built
// lazily, one per predicate a query actually scans, so a model that is
// only ever asked ground questions — or is rebuilt after every write —
// never pays for an index, and nothing ever invalidates one.
//
// The answer memo: for the same reason a query's answer set, and its JSON
// encoding once built, is a function of the model and the query's
// rendered text alone, so the model keeps the sets it produced, keyed by
// that text (a model belongs to one component). Every engine and entry
// point shares it: a repeated query is one map lookup. Two bounds keep the
// memo a share of what the model already holds. A set with more rows than
// the model has rules is answered and dropped: a goal whose rows one body
// literal determines has no more rows than that literal has true
// instances, each the head of a rule, so what goes unkept is a cross
// product or a join as wide. And a model keeps at most sliceCacheSize
// sets; a new one replaces any kept one.

// litKey names one bucket of a model's literal index.
type litKey struct {
	pred ast.PredKey
	neg  bool
}

// span is a half-open range of bucket rows.
type span struct{ lo, hi int32 }

// litBucket holds the model's literals of one predicate and sign as rows
// of interned argument ids, sorted canonically. Only predicates of arity
// one and up are ever bucketed: a zero-arity literal is always fully bound
// and answered by the membership probe. Canonical order compares
// arguments left to right, so the rows sharing a first argument are
// contiguous and first maps that argument to its row range: probing with a
// bound first argument enumerates a contiguous run of the canonical order,
// never a different order than the scan would.
type litBucket struct {
	once  sync.Once
	n     int
	args  []term.ID // arity ids per row, row-major
	first map[term.ID]span
}

// row returns the argument ids of the i-th literal.
func (b *litBucket) row(i, arity int) []term.ID { return b.args[i*arity : (i+1)*arity] }

// bucket returns the model's literals of one predicate and sign, building
// the bucket on first use. The map is guarded by the model's mutex; the
// build runs outside it under the bucket's own Once, so first queries on
// distinct predicates index concurrently and on the same predicate exactly
// once.
func (m *Model) bucket(k litKey) *litBucket {
	m.idxMu.Lock()
	b := m.idx[k]
	if b == nil {
		if m.idx == nil {
			m.idx = make(map[litKey]*litBucket)
		}
		b = &litBucket{}
		m.idx[k] = b
	}
	m.idxMu.Unlock()
	b.once.Do(func() { m.buildBucket(k, b) })
	return b
}

func (m *Model) buildBucket(k litKey, b *litBucket) {
	if obs.On() {
		mIndexBuilds.Inc()
	}
	tab := m.gp.Tab
	arity := k.pred.Arity
	var args []term.ID
	for _, id := range tab.OfPred(k.pred) {
		if m.in.HasLit(interp.MkLit(id, k.neg)) {
			args = append(args, tab.Key(id)[1:]...)
		}
	}
	b.n = len(args) / arity
	if b.n == 0 {
		return
	}
	// Atom ids are not canonical: cone and goal-slice sub-tables renumber
	// them, and an incrementally updated table interns in a different order
	// than a rebuild would. Canonical order is what makes enumeration (and
	// so CLI and HTTP output) a function of the model alone, byte-identical
	// across those paths. Within one predicate that order compares
	// arguments left to right with ast.CompareTerms, so each distinct term
	// is ranked once and the rows sort by their rank columns.
	ranked, nRanks := rankTerms(tab.TermTable(), args)
	// LSD counting sort: one stable pass per column, last column first,
	// leaves the rows in lexicographic order of their rank tuples. Rows
	// are distinct atoms, so that order is total.
	perm := make([]int32, 2*b.n+nRanks+1)
	rows, next, count := perm[:b.n], perm[b.n:2*b.n], perm[2*b.n:]
	for i := range rows {
		rows[i] = int32(i)
	}
	for c := arity - 1; c >= 0; c-- {
		clear(count)
		for _, r := range rows {
			count[ranked[int(r)*arity+c]+1]++
		}
		for i := 1; i < len(count); i++ {
			count[i] += count[i-1]
		}
		for _, r := range rows {
			rk := ranked[int(r)*arity+c]
			next[count[rk]] = r
			count[rk]++
		}
		rows, next = next, rows
	}
	b.args = make([]term.ID, 0, len(args))
	for _, r := range rows {
		b.args = append(b.args, args[int(r)*arity:int(r+1)*arity]...)
	}
	runs := 0
	for i := 0; i < b.n; i++ {
		if i == 0 || b.args[i*arity] != b.args[(i-1)*arity] {
			runs++
		}
	}
	b.first = make(map[term.ID]span, runs)
	lo := 0
	for i := 1; i <= b.n; i++ {
		if i == b.n || b.args[i*arity] != b.args[lo*arity] {
			b.first[b.args[lo*arity]] = span{int32(lo), int32(i)}
			lo = i
		}
	}
}

// rankScratch recycles the term-id-indexed slots rankTerms numbers
// distinct ids with: 4 bytes per term up to the largest id a bucket
// holds. A slot holds 1 + the id's distinct index while in use and is
// zeroed again before the slots go back to the pool.
var rankScratch = sync.Pool{New: func() any { return new([]int32) }}

// rankTerms replaces each interned id of ids by its term's rank among the
// distinct terms of ids in ast.CompareTerms order, and returns the ranks
// and how many distinct terms there are. Distinct ids are numbered by a
// dense id-indexed lookup, so each distinct term is decoded and compared
// once and no pass over ids compares or searches.
func rankTerms(terms *term.Table, ids []term.ID) ([]int32, int) {
	top := term.ID(0)
	for _, id := range ids {
		top = max(top, id)
	}
	sp := rankScratch.Get().(*[]int32)
	defer rankScratch.Put(sp)
	if len(*sp) <= int(top) {
		*sp = make([]int32, int(top)+1+int(top)/4)
	}
	slot := *sp
	ranked := make([]int32, len(ids))
	var distinct []term.ID
	for i, id := range ids {
		if slot[id] == 0 {
			distinct = append(distinct, id)
			slot[id] = int32(len(distinct))
		}
		ranked[i] = slot[id] - 1
	}
	for _, id := range distinct {
		slot[id] = 0
	}
	vals := terms.AppendTerms(make([]ast.Term, 0, len(distinct)), distinct)
	order := make([]int32, 2*len(distinct))
	byTerm, rankOf := order[:len(distinct)], order[len(distinct):]
	for i := range byTerm {
		byTerm[i] = int32(i)
	}
	slices.SortFunc(byTerm, func(x, y int32) int { return ast.CompareTerms(vals[x], vals[y]) })
	for r, i := range byTerm {
		rankOf[i] = int32(r)
	}
	for i, d := range ranked {
		ranked[i] = rankOf[d]
	}
	return ranked, len(distinct)
}

// argPat is one compiled argument position of a query literal.
type argPat struct {
	kind argKind
	id   term.ID  // argConst: the interned term; term.None if the model never interned it
	slot int      // argVar: the variable's position in Query.Vars
	fn   string   // argPartial: functor
	args []argPat // argPartial: sub-patterns
}

type argKind uint8

const (
	argConst   argKind = iota // ground term: an id comparison
	argVar                    // variable: binds on first sight, compares after
	argPartial                // compound containing variables: matched structurally
)

// litPat is one compiled query literal.
type litPat struct {
	key  litKey
	pred term.ID // the predicate symbol's id; term.None if never interned
	args []argPat
	ids  []term.ID  // scratch for the fully bound membership probe
	b    *litBucket // the literal's bucket, fetched on the first scan
}

// queryRun is the state of one evaluation: the compiled literals, the
// variable environment as interned ids (term.None = unbound) with an undo
// trail, and the rows found so far.
type queryRun struct {
	m        *Model
	lits     []litPat
	builtins []ast.Builtin
	ans      *Answers
	env      []term.ID
	trail    []int
}

// Answers evaluates a conjunctive query against the model: each query
// literal must be a member of the model under the binding (so -p(X) reads
// "¬p(X) is known", not "p(X) is unknown") and the builtins must hold.
// Literals are solved left to right and each literal's candidates are
// enumerated in canonical order, which fixes the order of the rows.
//
// Rows are never duplicates of one another, so there is no dedup pass:
// every variable of the body is an answer variable, hence a row determines
// the ground instance of every body literal, and the enumeration visits
// each combination of (distinct) member literals at most once. A repeated
// query text is answered from the model's memo (above).
func (m *Model) Answers(q ast.Query) *Answers {
	g := newGoal(q, false)
	return m.answer(&g)
}

// answer is Answers of a prepared goal, looked up by the memo key it
// carries.
func (m *Model) answer(g *Goal) *Answers {
	m.idxMu.Lock()
	a := m.answers[g.text]
	m.idxMu.Unlock()
	if a != nil {
		if obs.On() {
			mAnswerMemoHits.Inc()
		}
		return a
	}
	a = m.evalQuery(g.q, g.text)
	if a.n <= m.rules {
		m.keep(g.text, a)
	}
	if obs.On() {
		mAnswerMemoMisses.Inc()
	}
	return a
}

// keep adds the answer set to the model's memo, replacing any kept set
// when the memo is full. Two first askers of one query may both evaluate;
// the first set kept stays, and either is exact.
func (m *Model) keep(key string, a *Answers) {
	m.idxMu.Lock()
	defer m.idxMu.Unlock()
	if _, ok := m.answers[key]; ok {
		return
	}
	if m.answers == nil {
		m.answers = make(map[string]*Answers)
	} else if len(m.answers) >= sliceCacheSize {
		for k := range m.answers {
			delete(m.answers, k)
			break
		}
	}
	m.answers[key] = a
}

// evalQuery runs the query on the model's literal index.
func (m *Model) evalQuery(q ast.Query, text string) *Answers {
	terms := m.gp.Tab.TermTable()
	vars := q.Vars()
	r := &queryRun{
		m: m, builtins: q.Builtins,
		ans:  &Answers{terms: terms, query: text, vars: vars},
		lits: make([]litPat, len(q.Body)),
		env:  make([]term.ID, len(vars)),
	}
	for i := range r.env {
		r.env[i] = term.None
	}
	nargs := 0
	for _, l := range q.Body {
		nargs += len(l.Atom.Args)
	}
	pats, ids := make([]argPat, nargs), make([]term.ID, nargs)
	for i, l := range q.Body {
		n := len(l.Atom.Args)
		lp := litPat{key: litKey{l.Atom.Key(), l.Neg}, pred: term.None, args: pats[:n:n], ids: ids[:n:n]}
		pats, ids = pats[n:], ids[n:]
		if id, ok := terms.LookupSym(l.Atom.Pred); ok {
			lp.pred = id
		}
		for j, t := range l.Atom.Args {
			lp.args[j] = compileArg(t, vars, terms)
		}
		r.lits[i] = lp
	}
	r.solve(0)
	return r.ans
}

func compileArg(t ast.Term, vars []ast.Var, terms *term.Table) argPat {
	if v, ok := t.(ast.Var); ok {
		return argPat{kind: argVar, slot: slotOf(vars, v)}
	}
	if c, ok := t.(ast.Compound); ok && !c.Ground() {
		p := argPat{kind: argPartial, fn: c.Functor, args: make([]argPat, len(c.Args))}
		for i, a := range c.Args {
			p.args[i] = compileArg(a, vars, terms)
		}
		return p
	}
	id, ok := terms.Lookup(t)
	if !ok {
		id = term.None
	}
	return argPat{kind: argConst, id: id}
}

// slotOf returns v's position in vars. Queries have a handful of
// variables, so a scan beats a map.
func slotOf(vars []ast.Var, v ast.Var) int {
	for i, w := range vars {
		if w.Name == v.Name {
			return i
		}
	}
	panic("core: query variable missing from Query.Vars")
}

// solve extends the current environment over literals i.. and records a
// row for every extension that satisfies the builtins. Each literal takes
// the cheapest access its bound arguments allow: all bound, a membership
// probe of the atom table that needs no bucket; first argument bound, that
// argument's run of the bucket; otherwise the whole bucket.
func (r *queryRun) solve(i int) {
	if i == len(r.lits) {
		r.emit()
		return
	}
	l := &r.lits[i]
	if l.pred == term.None {
		return
	}
	arity := len(l.args)
	bound := 0
	for ; bound < arity; bound++ {
		id, ok := r.boundID(&l.args[bound])
		if !ok {
			break
		}
		l.ids[bound] = id
	}
	if bound == arity {
		if id, ok := r.m.gp.Tab.LookupIDs(l.pred, l.ids); ok && r.m.in.HasLit(interp.MkLit(id, l.key.neg)) {
			r.solve(i + 1)
		}
		return
	}
	if l.b == nil {
		l.b = r.m.bucket(l.key)
	}
	b := l.b
	rows := span{0, int32(b.n)}
	if bound > 0 {
		rows = b.first[l.ids[0]]
	}
	for row := int(rows.lo); row < int(rows.hi); row++ {
		mark := len(r.trail)
		ids := b.row(row, arity)
		ok := true
		for j := range l.args {
			if !r.match(&l.args[j], ids[j]) {
				ok = false
				break
			}
		}
		if ok {
			r.solve(i + 1)
		}
		for _, slot := range r.trail[mark:] {
			r.env[slot] = term.None
		}
		r.trail = r.trail[:mark]
	}
}

// boundID returns the id an argument is already fixed to: a constant the
// model knows, or a variable an earlier literal bound. A constant the
// model never interned reports its term.None, which equals no row and no
// atom.
func (r *queryRun) boundID(p *argPat) (term.ID, bool) {
	switch p.kind {
	case argConst:
		return p.id, true
	case argVar:
		return r.env[p.slot], r.env[p.slot] != term.None
	}
	return term.None, false
}

// match extends the environment so that the pattern equals the interned
// ground term id.
func (r *queryRun) match(p *argPat, id term.ID) bool {
	switch p.kind {
	case argConst:
		return p.id == id
	case argVar:
		if r.env[p.slot] == term.None {
			r.env[p.slot] = id
			r.trail = append(r.trail, p.slot)
			return true
		}
		return r.env[p.slot] == id
	}
	g, ok := r.ans.terms.Term(id).(ast.Compound)
	if !ok || g.Functor != p.fn || len(g.Args) != len(p.args) {
		return false
	}
	for i := range p.args {
		sub, _ := r.ans.terms.Lookup(g.Args[i]) // subterms are interned with the term
		if !r.match(&p.args[i], sub) {
			return false
		}
	}
	return true
}

// emit records the current environment as a row if the builtins hold.
func (r *queryRun) emit() {
	for _, b := range r.builtins {
		gb := ast.Builtin{Op: b.Op, L: ast.SubstituteExpr(b.L, r.binding), R: ast.SubstituteExpr(b.R, r.binding)}
		if holds, ok := ast.EvalBuiltin(gb); !ok || !holds {
			return
		}
	}
	r.ans.rows = append(r.ans.rows, r.env...)
	r.ans.n++
}

// binding is the environment as an ast substitution (nil = unbound).
func (r *queryRun) binding(v ast.Var) ast.Term {
	for i, w := range r.ans.vars {
		if w.Name == v.Name && r.env[i] != term.None {
			return r.ans.terms.Term(r.env[i])
		}
	}
	return nil
}

// Answers is the answer set of one query: one row of interned term ids per
// solution, in enumeration order, over the query's variables. Rows stay
// ids until a caller asks for terms (Bindings) or bytes (JSON).
// Every id of a row is bound: a variable no literal binds occurs in a
// builtin, and a builtin over an unbound variable does not hold.
//
// An answer set is immutable once returned, and its JSON encoding is
// built once, by the first call of JSON, and kept. The model it was read
// from may keep it and hand it to every later caller asking the same
// query text (the answer memo), so it carries that text.
type Answers struct {
	terms *term.Table
	query string // the rendered query, the memo's key
	vars  []ast.Var
	rows  []term.ID // len(vars) ids per row
	n     int

	once sync.Once
	enc  []byte
}

// Query returns the query the answers answer, rendered as ast.Query.String
// renders it: the text the model rendered once, to key its memo.
func (a *Answers) Query() string { return a.query }

// row returns the ids of the i-th solution, in Query.Vars order.
func (a *Answers) row(i int) []term.ID { return a.rows[i*len(a.vars) : (i+1)*len(a.vars)] }

// Bindings returns the solutions as variable-name-to-term maps.
func (a *Answers) Bindings() []Binding {
	if a.n == 0 {
		return nil
	}
	out := make([]Binding, a.n)
	var vals []ast.Term
	for i := range out {
		vals = a.terms.AppendTerms(vals[:0], a.row(i))
		b := make(Binding, len(a.vars))
		for j, v := range a.vars {
			b[v.Name] = vals[j]
		}
		out[i] = b
	}
	return out
}
