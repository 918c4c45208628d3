package core

import (
	"context"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/interrupt"
	"repro/internal/obs"
	"repro/internal/term"
)

// Cutting a goal's slice from the ground program the snapshot already
// holds. Under Definition 2 the status of an instance depends only on its
// body literals and on its competitors — the instances with the
// complementary head — so a set of atoms closed under "an instance headed
// by A or ¬A brings in its body atoms" is a splitting set of the ground
// program: V restricted to it is V of the sub-program of the instances it
// heads (DESIGN §12). The cut seeds that closure with the atoms matching
// the goal's literals, walks it over the snapshot's live instances, and
// renumbers the result into a compact program whose atom table is a
// sub-table of the snapshot's, so everything built over the slice is sized
// by the slice.

// occIndex indexes the instances of one ground program by the atoms they
// mention. Every snapshot over the program shares it. Instances are only
// ever appended to a program, so the index is only ever extended: the
// first reader whose pinned prefix is longer than the index covers
// indexes the difference under mu, and every reader walks the index
// without a lock, skipping the instances at or past its own prefix and
// those its dead set kills. Goal cuts walk it from heads to bodies; a
// write's cone (cone.go) walks it from bodies to heads.
//
// Postings are chains, newest first: headLast[a] is the last instance
// headed by atom a (either sign) and headPrev[i] the previous instance
// with instance i's head atom. The body side does the same per
// occurrence, and bodyInst maps an occurrence to its instance.
type occIndex struct {
	tab *interp.Table

	mu sync.Mutex
	// heads counts the instances whose head postings are written; it is
	// published after them. rules is that prefix and comps counts its
	// instances per component; both are read and written under mu.
	heads              atomic.Int32
	rules              ground.Instances
	comps              []int32
	headLast, headPrev column
	// bySym and byFirst map a term id to the newest atom heading an
	// instance whose predicate symbol, or first argument, it is; symPrev
	// and firstPrev link each such atom to the previous one. A goal
	// literal's candidate atoms are one of these chains.
	bySym, symPrev, byFirst, firstPrev column

	// bodies counts the instances whose body postings are written, and occs
	// (under mu) their occurrences. Only cones read body postings, so only
	// eachBody writes them: goal cuts never hold them.
	bodies                       atomic.Int32
	occs                         int32
	bodyLast, bodyPrev, bodyInst column
}

func newOccIndex(gp *ground.Program) *occIndex {
	return &occIndex{tab: gp.Tab, comps: make([]int32, gp.NumComponents())}
}

// chunkBits sizes a column's chunks: 1 << chunkBits entries each.
const chunkBits = 10

type chunk [1 << chunkBits]atomic.Int32

// column is a growable array of int32 links, -1 where unset, that one
// writer under occIndex.mu extends while readers read it without a lock.
// It grows by whole chunks behind an atomically swapped directory, so no
// entry moves once published.
type column struct{ dir atomic.Pointer[[]*chunk] }

func (c *column) get(i int32) int32 {
	d := c.dir.Load()
	if d == nil || int(i>>chunkBits) >= len(*d) {
		return -1
	}
	return (*d)[i>>chunkBits][i&(1<<chunkBits-1)].Load() - 1
}

func (c *column) set(i, v int32) {
	d := c.dir.Load()
	if d == nil || int(i>>chunkBits) >= len(*d) {
		d = c.grow(int(i >> chunkBits))
	}
	(*d)[i>>chunkBits][i&(1<<chunkBits-1)].Store(v + 1)
}

// grow publishes a directory reaching chunk k. Only growth takes a
// directory's address: a set that did would allocate on every call.
func (c *column) grow(k int) *[]*chunk {
	var dir []*chunk
	if d := c.dir.Load(); d != nil {
		dir = *d
	}
	for len(dir) <= k {
		dir = append(dir, new(chunk))
	}
	c.dir.Store(&dir)
	return &dir
}

// occ returns the snapshot's index with the head postings of every
// instance it pins written.
func (s *Snapshot) occ() *occIndex {
	x := s.index
	if int(x.heads.Load()) < s.rules.Len() {
		x.mu.Lock()
		x.extendHeads(s.rules)
		x.mu.Unlock()
	}
	return x
}

// extendHeads writes the head postings of the instances of rules the
// index does not cover yet. Called under mu.
func (x *occIndex) extendHeads(rules ground.Instances) {
	from := int(x.heads.Load())
	if rules.Len() <= from {
		return
	}
	if from == 0 && obs.On() {
		mSliceIndexBuilds.Inc()
	}
	for i := from; i < rules.Len(); i++ {
		a := int32(rules.Head(i).Atom())
		last := x.headLast.get(a)
		if last < 0 { // a heads its first instance: chain it for seeding
			key := x.tab.Key(interp.AtomID(a))
			x.symPrev.set(a, x.bySym.get(int32(key[0])))
			x.bySym.set(int32(key[0]), a)
			if len(key) > 1 {
				x.firstPrev.set(a, x.byFirst.get(int32(key[1])))
				x.byFirst.set(int32(key[1]), a)
			}
		}
		x.headPrev.set(int32(i), last)
		x.headLast.set(a, int32(i))
		x.comps[rules.Comp(i)]++
	}
	x.rules = rules
	x.heads.Store(int32(rules.Len()))
}

// extendBodies writes the body postings of the instances of rules the
// index does not cover yet. Called under mu.
func (x *occIndex) extendBodies(rules ground.Instances) {
	from := int(x.bodies.Load())
	if rules.Len() <= from {
		return
	}
	for i := from; i < rules.Len(); i++ {
		for _, l := range rules.Body(i) {
			a := int32(l.Atom())
			x.bodyInst.set(x.occs, int32(i))
			x.bodyPrev.set(x.occs, x.bodyLast.get(a))
			x.bodyLast.set(a, x.occs)
			x.occs++
		}
	}
	x.bodies.Store(int32(rules.Len()))
}

// visibleLive returns the live instances component i sees as of s: its
// own and those of every component above it.
func (s *Snapshot) visibleLive(i int) int {
	s.resolveLive()
	return s.visible[i]
}

// resolveLive counts the snapshot's live instances per component, and
// those each component sees, once. The index's counts and the prefix they
// count are read together under mu, so a concurrent extension cannot skew
// them.
func (s *Snapshot) resolveLive() {
	s.liveOnce.Do(func() {
		x := s.index
		x.mu.Lock()
		x.extendHeads(s.rules)
		live := slices.Clone(x.comps)
		for i := s.rules.Len(); i < x.rules.Len(); i++ {
			live[x.rules.Comp(i)]--
		}
		x.mu.Unlock()
		for i := range s.dead {
			live[s.rules.Comp(int(i))]--
		}
		visible := make([]int, len(live))
		for i := range visible {
			for j, n := range live {
				if j == i || s.gp.Src.Less(i, j) { // j is in Above(i)
					visible[i] += int(n)
				}
			}
		}
		s.live, s.visible = live, visible
	})
}

// pins reports whether instance i is a live instance of the snapshot.
func (s *Snapshot) pins(i int32) bool {
	_, gone := s.dead[i]
	return int(i) < s.rules.Len() && !gone
}

// each calls f for every live instance of s headed by atom a, newest
// first.
func (x *occIndex) each(s *Snapshot, a interp.AtomID, f func(int32)) {
	for i := x.headLast.get(int32(a)); i >= 0; i = x.headPrev.get(i) {
		if s.pins(i) {
			f(i)
		}
	}
}

// eachBody calls f for every live instance of s with atom a in its body,
// once per occurrence, newest first.
func (x *occIndex) eachBody(s *Snapshot, a interp.AtomID, f func(int32)) {
	if int(x.bodies.Load()) < s.rules.Len() {
		x.mu.Lock()
		x.extendBodies(s.rules)
		x.mu.Unlock()
	}
	for o := x.bodyLast.get(int32(a)); o >= 0; o = x.bodyPrev.get(o) {
		if i := x.bodyInst.get(o); s.pins(i) {
			f(i)
		}
	}
}

// seed reports, through visit, every atom that can match the goal literal
// l: the atom itself when l is ground, otherwise every atom heading a live
// instance of s that agrees with l's predicate, arity and ground
// arguments. It walks the atoms sharing l's first argument when that is
// ground, those of l's predicate otherwise. A goal atom no live instance
// heads has no member literal in any model, so skipping such atoms (when
// l is not ground) loses no answer.
func (x *occIndex) seed(s *Snapshot, l ast.Literal, visit func(interp.AtomID)) {
	tab := x.tab
	if l.Atom.Ground() {
		if id, ok := tab.Lookup(l.Atom); ok {
			visit(id)
		}
		return
	}
	pat, ok := keyPattern(tab.TermTable(), l.Atom)
	if !ok {
		return
	}
	a, next := x.bySym.get(int32(pat[0])), &x.symPrev
	if len(pat) > 1 && pat[1] != term.None {
		a, next = x.byFirst.get(int32(pat[1])), &x.firstPrev
	}
	for ; a >= 0; a = next.get(a) {
		if !matches(pat, tab.Key(interp.AtomID(a))) {
			continue
		}
		live := false
		x.each(s, interp.AtomID(a), func(int32) { live = true })
		if live {
			visit(interp.AtomID(a))
		}
	}
}

// keyPattern returns the stored key a ground atom matching p would have,
// with term.None at p's non-ground arguments. It reports false when p's
// predicate or one of its ground arguments was never interned: then no
// atom matches p.
func keyPattern(tt *term.Table, p ast.Atom) ([]term.ID, bool) {
	pat := make([]term.ID, 1+len(p.Args))
	var ok bool
	if pat[0], ok = tt.LookupSym(p.Pred); !ok {
		return nil, false
	}
	for j, t := range p.Args {
		pat[1+j] = term.None
		if t.Ground() {
			if pat[1+j], ok = tt.Lookup(t); !ok {
				return nil, false
			}
		}
	}
	return pat, true
}

// matches reports whether an atom's stored key agrees with the pattern
// keyPattern built on predicate, arity and every ground argument.
func matches(pat, key []term.ID) bool {
	if len(key) != len(pat) || key[0] != pat[0] {
		return false
	}
	for j := 1; j < len(pat); j++ {
		if pat[j] != term.None && pat[j] != key[j] {
			return false
		}
	}
	return true
}

// cutSlice cuts the goal's slice from the snapshot's ground program: the
// closure of the goal's atoms under head (either sign) → body over the live
// instances, emitted in instance order over a sub-table of the snapshot's
// atom table.
func (s *Snapshot) cutSlice(ctx context.Context, goal []ast.Literal) (*ground.Program, error) {
	x := s.occ()
	nAtoms := s.nAtoms
	atoms := newRankSet(nAtoms)
	picked := interp.NewBitset(s.rules.Len())
	var work []interp.AtomID
	visit := func(a interp.AtomID) {
		// A ground goal atom can be interned by a later write; it heads no
		// instance this snapshot pins.
		if int(a) < nAtoms && atoms.add(int(a)) {
			work = append(work, a)
		}
	}
	for _, l := range goal {
		x.seed(s, l, visit)
	}
	nRules, nBody := 0, 0
	pick := func(i int32) {
		picked.Set(int(i))
		body := s.rules.Body(int(i))
		nRules, nBody = nRules+1, nBody+len(body)
		for _, l := range body {
			visit(l.Atom())
		}
	}
	for popped := 0; len(work) > 0; popped++ {
		if popped%1024 == 0 {
			if err := interrupt.Check(ctx, "core: slice cut"); err != nil {
				return nil, err
			}
		}
		a := work[len(work)-1]
		work = work[:len(work)-1]
		x.each(s, a, pick)
	}
	gp, _ := s.emitSlice(picked, atoms, nRules, nBody)
	return gp, nil
}

// emitSlice emits the picked instances in instance order as a program over
// a sub-table of the snapshot's atom table holding the atoms of atoms,
// which must include every atom the picked instances mention; nRules and
// nBody size it exactly. It also returns the sub-table's atoms: local atom
// j is the snapshot's ids[j].
func (s *Snapshot) emitSlice(picked *interp.Bitset, atoms *rankSet, nRules, nBody int) (*ground.Program, []interp.AtomID) {
	ids := atoms.freeze()
	remap := func(l interp.Lit) interp.Lit { return interp.MkLit(atoms.rank(l.Atom()), l.Neg()) }
	return s.rules.Cut(s.gp.Tab.Sub(ids), picked, nRules, nBody, remap), ids
}

// rankSet is a set of atom ids over a dense range that, once frozen,
// renumbers its members densely in ascending order in O(1) per lookup.
type rankSet struct {
	words []uint64
	ranks []int32 // ranks[w]: members in words[:w]; filled by freeze
	n     int
}

func newRankSet(n int) *rankSet { return &rankSet{words: make([]uint64, (n+63)/64)} }

// add inserts i and reports whether it was new.
func (r *rankSet) add(i int) bool {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if r.words[w]&m != 0 {
		return false
	}
	r.words[w] |= m
	r.n++
	return true
}

// freeze fills the rank table and returns the members in ascending order.
func (r *rankSet) freeze() []interp.AtomID {
	ids := make([]interp.AtomID, 0, r.n)
	r.ranks = make([]int32, len(r.words))
	for wi, w := range r.words {
		r.ranks[wi] = int32(len(ids))
		for ; w != 0; w &= w - 1 {
			ids = append(ids, interp.AtomID(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return ids
}

// rank returns a member's position in ascending order.
func (r *rankSet) rank(a interp.AtomID) interp.AtomID {
	w := int(a) >> 6
	below := r.words[w] & (uint64(1)<<(uint(a)&63) - 1)
	return interp.AtomID(r.ranks[w] + int32(bits.OnesCount64(below)))
}
