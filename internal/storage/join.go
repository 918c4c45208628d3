// Selectivity-driven join planning and execution over relations, on term
// ids end to end.
//
// Every multi-literal join in the engine — the semi-naive Datalog deltas,
// the grounder's fireable and competitor passes, the classical baselines —
// runs here. A caller compiles each rule once: its variables are numbered
// into slots, and every argument becomes a Pat — a constant's interned id,
// a slot, or a compound of sub-patterns. A join binds a Frame, one term id
// per slot (term.None while unbound) with an undo trail of slots, so
// matching a tuple is integer comparison and binding is one store; nothing
// is boxed back into an ast.Term and nothing is allocated per candidate.
// Join orders the literals greedily by boundness (most already-bound
// argument positions first, ties broken by smallest relation), then
// enumerates matching frames off the relations' column buckets. The caller
// builds its result straight from the frame (Frame.Build).
package storage

import (
	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/term"
)

// Pat is one compiled argument: a ground term's interned id (Slot < 0 and
// no Comp), a variable's frame slot (Slot >= 0), or a compound with
// variables inside (Comp).
type Pat struct {
	ID   term.ID
	Slot int32
	Comp *CompPat
}

// CompPat is a compound pattern: its functor and sub-patterns.
type CompPat struct {
	Functor string
	Args    []Pat
}

// Compile compiles t over tab, interning its ground subterms and numbering
// its variables by their position in *vars (new ones are appended, so one
// vars list across a rule's atoms gives the rule its slots).
func Compile(tab *term.Table, t ast.Term, vars *[]ast.Var) Pat {
	if t.Ground() {
		return Pat{ID: tab.Intern(t), Slot: -1}
	}
	switch t := t.(type) {
	case ast.Var:
		for i, v := range *vars {
			if v.Name == t.Name {
				return Pat{ID: term.None, Slot: int32(i)}
			}
		}
		*vars = append(*vars, t)
		return Pat{ID: term.None, Slot: int32(len(*vars) - 1)}
	case ast.Compound:
		return Pat{ID: term.None, Slot: -1, Comp: &CompPat{Functor: t.Functor, Args: CompileArgs(tab, t.Args, vars)}}
	}
	panic("storage: compile of unknown term kind")
}

// CompileArgs compiles an atom's arguments (see Compile).
func CompileArgs(tab *term.Table, args []ast.Term, vars *[]ast.Var) []Pat {
	return AppendPats(make([]Pat, 0, len(args)), tab, args, vars)
}

// AppendPats appends the compiled arguments to dst, so a caller compiling
// many atoms can carve their patterns from one slab. Patterns are never
// written after compilation, so a slab that grows leaves earlier sub-slices
// valid.
func AppendPats(dst []Pat, tab *term.Table, args []ast.Term, vars *[]ast.Var) []Pat {
	for _, a := range args {
		dst = append(dst, Compile(tab, a, vars))
	}
	return dst
}

// Frame holds one join's bindings: Vals[slot] is the slot's term id, or
// term.None while unbound. Bindings made after a Mark are undone by Undo.
// The zero value has no slots; Reserve makes room.
type Frame struct {
	Vals  []term.ID
	trail []int32
}

// Reserve makes room for n slots; the frame must have nothing bound.
func (f *Frame) Reserve(n int) {
	for len(f.Vals) < n {
		f.Vals = append(f.Vals, term.None)
	}
}

// Mark returns an undo point for Undo.
func (f *Frame) Mark() int { return len(f.trail) }

// Undo unbinds every slot bound since the corresponding Mark.
func (f *Frame) Undo(mark int) {
	for _, s := range f.trail[mark:] {
		f.Vals[s] = term.None
	}
	f.trail = f.trail[:mark]
}

// Bind binds an unbound slot.
func (f *Frame) Bind(slot int32, id term.ID) {
	f.Vals[slot] = id
	f.trail = append(f.trail, slot)
}

// bound reports whether every variable of p is bound.
func (f *Frame) bound(p *Pat) bool {
	if p.Slot >= 0 {
		return f.Vals[p.Slot] != term.None
	}
	if p.Comp != nil {
		for i := range p.Comp.Args {
			if !f.bound(&p.Comp.Args[i]) {
				return false
			}
		}
	}
	return true
}

// match extends f so that p under f denotes id; on failure the caller
// undoes to its mark. A slot bound earlier — by an enclosing level or by an
// earlier position of the same tuple, as in p(X, X) — must hold id.
func (f *Frame) match(tab *term.Table, p *Pat, id term.ID) bool {
	switch {
	case p.Slot >= 0:
		if v := f.Vals[p.Slot]; v != term.None {
			return v == id
		}
		f.Bind(p.Slot, id)
		return true
	case p.Comp == nil:
		return p.ID == id
	}
	var buf [8]term.ID
	fn, args, ok := tab.Decompose(id, buf[:0])
	if !ok || fn != p.Comp.Functor || len(args) != len(p.Comp.Args) {
		return false
	}
	for i := range p.Comp.Args {
		if !f.match(tab, &p.Comp.Args[i], args[i]) {
			return false
		}
	}
	return true
}

// Match extends f so that every pattern denotes the id at its position —
// a rule head matched against a ground atom's arguments. On failure the
// frame may be partially extended; callers Undo to their Mark.
func (f *Frame) Match(tab *term.Table, pats []Pat, ids []term.ID) bool {
	for i := range pats {
		if !f.match(tab, &pats[i], ids[i]) {
			return false
		}
	}
	return true
}

// id returns the term p denotes under f: false when a slot of p is unbound
// or, with intern false, when a compound it builds was never interned (so
// no tuple or atom can hold it).
func (f *Frame) id(tab *term.Table, p *Pat, intern bool) (term.ID, bool) {
	switch {
	case p.Slot >= 0:
		v := f.Vals[p.Slot]
		return v, v != term.None
	case p.Comp == nil:
		return p.ID, true
	}
	var buf [8]term.ID
	args := buf[:0]
	for i := range p.Comp.Args {
		a, ok := f.id(tab, &p.Comp.Args[i], intern)
		if !ok {
			return term.None, false
		}
		args = append(args, a)
	}
	if intern {
		return tab.InternCompound(p.Comp.Functor, args), true
	}
	return tab.LookupCompound(p.Comp.Functor, args)
}

// Build appends the ids the patterns denote under f to dst, interning the
// compounds they build. ok is false when some slot is unbound.
func (f *Frame) Build(tab *term.Table, pats []Pat, dst []term.ID) ([]term.ID, bool) {
	for i := range pats {
		id, ok := f.id(tab, &pats[i], true)
		if !ok {
			return dst, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// Lookup is Build without interning: ok is also false when a compound the
// patterns build was never interned, so no stored tuple or atom holds it.
func (f *Frame) Lookup(tab *term.Table, pats []Pat, dst []term.ID) ([]term.ID, bool) {
	for i := range pats {
		id, ok := f.id(tab, &pats[i], false)
		if !ok {
			return dst, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// Resolver reads a compiled rule's variables off a frame as terms, for
// evaluating builtins: Vars[i] is slot i's variable.
type Resolver struct {
	F    *Frame
	Tab  *term.Table
	Vars []ast.Var
}

// Term returns v's binding, or nil when v is unbound or not a slot.
func (r Resolver) Term(v ast.Var) ast.Term {
	for i, w := range r.Vars {
		if w.Name == v.Name {
			if id := r.F.Vals[i]; id != term.None {
				return r.Tab.Term(id)
			}
			return nil
		}
	}
	return nil
}

// JoinLit is one positive body literal of a join: compiled patterns over a
// relation. A nil Rel means the relation does not exist (no matches). Lo
// restricts the scan to tuples at insertion index >= Lo (semi-naive delta).
type JoinLit struct {
	Rel  *Relation
	Args []Pat
	Lo   int
}

// patBound reports whether every variable of p is in bound (by slot).
func patBound(p *Pat, bound []bool) bool {
	if p.Slot >= 0 {
		return bound[p.Slot]
	}
	if p.Comp != nil {
		for i := range p.Comp.Args {
			if !patBound(&p.Comp.Args[i], bound) {
				return false
			}
		}
	}
	return true
}

// markBound marks p's slots bound.
func markBound(p *Pat, bound []bool) {
	if p.Slot >= 0 {
		bound[p.Slot] = true
	}
	if p.Comp != nil {
		for i := range p.Comp.Args {
			markBound(&p.Comp.Args[i], bound)
		}
	}
}

// PlanJoin returns the greedy join order: starting from the literal in
// first (or nothing), repeatedly pick the unplaced literal with the most
// bound argument positions, breaking ties by smallest relation then by
// source position. first >= 0 forces that literal to the front (the
// semi-naive delta literal, whose restricted scan should bind before
// anything else). Slots f already binds (a head match) count as bound from
// the start. The plan depends only on boundness and relation sizes, never
// on body order beyond final tie-breaks, which makes join cost insensitive
// to how the program author ordered the body.
func PlanJoin(f *Frame, lits []JoinLit, first int) []int {
	n := len(lits)
	order := make([]int, 0, n)
	var usedBuf [16]bool
	used := usedBuf[:]
	if n > len(usedBuf) {
		used = make([]bool, n)
	}
	var boundBuf [32]bool
	bound := boundBuf[:]
	if len(f.Vals) > len(boundBuf) {
		bound = make([]bool, len(f.Vals))
	}
	for s, v := range f.Vals {
		bound[s] = v != term.None
	}
	place := func(i int) {
		order = append(order, i)
		used[i] = true
		for j := range lits[i].Args {
			markBound(&lits[i].Args[j], bound)
		}
	}
	if first >= 0 && first < n {
		place(first)
	}
	for len(order) < n {
		best, bestBound, bestSize := -1, -1, 0
		for i := range lits {
			if used[i] {
				continue
			}
			nb := 0
			for j := range lits[i].Args {
				if patBound(&lits[i].Args[j], bound) {
					nb++
				}
			}
			size := 0
			if lits[i].Rel != nil {
				size = lits[i].Rel.Len()
			}
			if best == -1 || nb > bestBound || (nb == bestBound && size < bestSize) {
				best, bestBound, bestSize = i, nb, size
			}
		}
		place(best)
	}
	return order
}

// sequentialOrder is the planner-off order: source order with first moved
// to the front.
func sequentialOrder(n, first int) []int {
	order := make([]int, 0, n)
	if first >= 0 && first < n {
		order = append(order, first)
	}
	for i := 0; i < n; i++ {
		if i != first {
			order = append(order, i)
		}
	}
	return order
}

// Join enumerates every extension of f that matches all literals against
// their relations, calling yield once per complete match (bindings are live
// in f during the call and undone afterwards). first >= 0 forces that
// literal to be joined first (delta literal); plan selects the greedy
// selectivity order (true) or source order (false, the differential-test
// ablation). Iteration stops at the first non-nil error from yield, which
// is propagated.
func Join(f *Frame, lits []JoinLit, first int, plan bool, yield func() error) error {
	n := len(lits)
	if n == 0 {
		return yield()
	}
	j := joiner{f: f, lits: lits, yield: yield}
	if plan {
		j.order = PlanJoin(f, lits, first)
	} else {
		j.order = sequentialOrder(n, first)
	}
	if obs.On() {
		mJoins.Inc()
		if plan {
			mJoinsPlanned.Inc()
			if !isSequential(j.order, first) {
				mJoinsReordered.Inc()
			}
		}
		if first >= 0 {
			mJoinDeltaFirst.Inc()
		}
	}
	// Per-level id patterns: the id each position must hold (term.None =
	// bound by the candidate tuple itself).
	for _, l := range lits {
		j.maxA = max(j.maxA, len(l.Args))
	}
	var idBuf [32]term.ID
	if n*j.maxA <= len(idBuf) {
		j.ids = idBuf[:n*j.maxA]
	} else {
		j.ids = make([]term.ID, n*j.maxA)
	}
	return j.rec(0)
}

// joiner is one Join's state; rec(k) joins the k-th literal of the order.
type joiner struct {
	f     *Frame
	lits  []JoinLit
	order []int
	ids   []term.ID
	maxA  int
	yield func() error
}

func (j *joiner) rec(k int) error {
	if k == len(j.order) {
		return j.yield()
	}
	l := &j.lits[j.order[k]]
	if l.Rel == nil {
		return nil
	}
	tab := l.Rel.tab
	ids := j.ids[k*j.maxA : k*j.maxA+len(l.Args)]
	for i := range l.Args {
		p := &l.Args[i]
		switch {
		case p.Slot >= 0:
			ids[i] = j.f.Vals[p.Slot] // term.None: the tuple binds it
		case p.Comp == nil:
			ids[i] = p.ID
		case j.f.bound(p):
			id, ok := j.f.id(tab, p, false)
			if !ok {
				return nil // compound in no tuple of this store: no match
			}
			ids[i] = id
		default:
			ids[i] = term.None // partially bound compound: matched per tuple
		}
	}
	bucket, bound := l.Rel.bestBucket(ids)
	if bound {
		for _, ti := range bucket[cutBucket(bucket, l.Lo):] {
			if err := j.try(k, l, ids, int(ti)); err != nil {
				return err
			}
		}
		return nil
	}
	for ti, m := l.Lo, l.Rel.Len(); ti < m; ti++ {
		if err := j.try(k, l, ids, ti); err != nil {
			return err
		}
	}
	return nil
}

// try matches tuple ti of literal l: the positions the level fixed compare
// ids, then the rest bind (or, for a slot an earlier position of the same
// tuple bound, compare) in position order.
func (j *joiner) try(k int, l *JoinLit, ids []term.ID, ti int) error {
	tup := l.Rel.TupleIDs(ti)
	for i, id := range ids {
		if id != term.None && tup[i] != id {
			return nil
		}
	}
	mark := j.f.Mark()
	for i, id := range ids {
		if id == term.None && !j.f.match(l.Rel.tab, &l.Args[i], tup[i]) {
			j.f.Undo(mark)
			return nil
		}
	}
	err := j.rec(k + 1)
	j.f.Undo(mark)
	return err
}
