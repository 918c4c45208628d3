package core

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

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

// headIndex indexes the first n instances of one ground program by head
// atom. It never looks at a dead set, so every snapshot over the program
// can share it: a snapshot filters its own dead instances at cut time and
// scans its own instances past n (its tail) separately.
type headIndex struct {
	n int // indexed instances: the program's Rules[:n]
	// off and inst are a CSR over head atom ids: the instances headed by
	// atom a, of either sign, are inst[off[a]:off[a+1]], ascending.
	off  []int32
	inst []int32
	// heads lists the atoms heading at least one indexed instance, ordered
	// by (predicate symbol id, first-argument id), so the atoms matching a
	// goal literal's predicate and bound first argument are one range.
	heads []interp.AtomID
}

// headIndexCell holds the head index of one ground program. Every snapshot
// over the program shares the cell; the index is built on the first cold
// goal, not when the program is grounded.
type headIndexCell struct {
	mu  sync.Mutex
	idx *headIndex
}

// forRules returns an index usable for a snapshot pinning rules, building
// one when there is none yet or when the instances past the indexed
// prefix have grown as long as the prefix itself — so rebuilds cost O(1)
// amortised per appended instance.
func (c *headIndexCell) forRules(tab *interp.Table, rules []ground.Rule) *headIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.idx == nil {
		c.idx = buildHeadIndex(tab, rules)
	} else if tail := len(rules) - c.idx.n; tail > 0 && tail >= c.idx.n {
		c.idx = buildHeadIndex(tab, rules)
	}
	return c.idx
}

func buildHeadIndex(tab *interp.Table, rules []ground.Rule) *headIndex {
	if obs.On() {
		mSliceIndexBuilds.Inc()
	}
	nAtoms := tab.Len() // every atom of rules was interned before they were published
	idx := &headIndex{n: len(rules), off: make([]int32, nAtoms+1), inst: make([]int32, len(rules))}
	for i := range rules {
		idx.off[rules[i].Head.Atom()+1]++
	}
	nHeads := 0
	for a := 0; a < nAtoms; a++ {
		if idx.off[a+1] > 0 {
			nHeads++
		}
		idx.off[a+1] += idx.off[a]
	}
	// Fill by advancing each atom's start, then shift the starts back.
	for i := range rules {
		a := rules[i].Head.Atom()
		idx.inst[idx.off[a]] = int32(i)
		idx.off[a]++
	}
	copy(idx.off[1:], idx.off[:nAtoms])
	idx.off[0] = 0

	type keyed struct {
		sym, first term.ID
		id         interp.AtomID
	}
	keys := make([]keyed, 0, nHeads)
	tt := tab.TermTable()
	for a := 0; a < nAtoms; a++ {
		if idx.off[a+1] > idx.off[a] {
			sym, first := headKey(tab, tt, interp.AtomID(a))
			keys = append(keys, keyed{sym, first, interp.AtomID(a)})
		}
	}
	slices.SortFunc(keys, func(x, y keyed) int {
		if x.sym != y.sym {
			return cmp.Compare(x.sym, y.sym)
		}
		return cmp.Compare(x.first, y.first)
	})
	idx.heads = make([]interp.AtomID, len(keys))
	for i, k := range keys {
		idx.heads[i] = k.id
	}
	return idx
}

// headKey is an atom's position in headIndex.heads: its predicate symbol id
// and its first argument's id (term.None for a nullary atom).
func headKey(tab *interp.Table, tt *term.Table, id interp.AtomID) (sym, first term.ID) {
	a := tab.Atom(id)
	sym, _ = tt.LookupSym(a.Pred)
	first = term.None
	if len(a.Args) > 0 {
		first, _ = tt.Lookup(a.Args[0])
	}
	return sym, first
}

// snapCut is what one snapshot cuts with: the shared head index, how much
// of it the snapshot pins, and the snapshot's own live tail instances by
// head atom.
type snapCut struct {
	idx   *headIndex
	limit int32 // indexed instances below this index are in the snapshot
	tail  map[interp.AtomID][]int32
}

// cutter returns the snapshot's cut state, resolving it on first use.
func (s *Snapshot) cutter() *snapCut {
	s.cutOnce.Do(func() {
		idx := s.heads.forRules(s.gp.Tab, s.rules)
		c := &snapCut{idx: idx, limit: int32(min(idx.n, len(s.rules)))}
		for i := idx.n; i < len(s.rules); i++ {
			if _, gone := s.dead[int32(i)]; gone {
				continue
			}
			if c.tail == nil {
				c.tail = make(map[interp.AtomID][]int32)
			}
			a := s.rules[i].Head.Atom()
			c.tail[a] = append(c.tail[a], int32(i))
		}
		s.cut = c
	})
	return s.cut
}

// seed reports, through visit, every atom that can match the goal literal
// l: the atom itself when l is ground, otherwise every head atom of l's
// predicate and arity agreeing with each of l's ground arguments. A goal
// atom no instance heads has no member literal in any model, so skipping
// such atoms (when l is not ground) loses no answer.
func (c *snapCut) seed(tab *interp.Table, l ast.Literal, visit func(interp.AtomID)) {
	if l.Atom.Ground() {
		if id, ok := tab.Lookup(l.Atom); ok {
			visit(id)
		}
		return
	}
	tt := tab.TermTable()
	sym, ok := tt.LookupSym(l.Atom.Pred)
	if !ok {
		return
	}
	lo, hi := term.ID(math.MinInt32), term.ID(math.MaxInt32)
	if len(l.Atom.Args) > 0 && l.Atom.Args[0].Ground() {
		first, ok := tt.Lookup(l.Atom.Args[0])
		if !ok {
			return
		}
		lo, hi = first, first
	}
	heads := c.idx.heads
	compare := func(i int, first term.ID) int {
		hs, hf := headKey(tab, tt, heads[i])
		if hs != sym {
			return cmp.Compare(hs, sym)
		}
		return cmp.Compare(hf, first)
	}
	from := sort.Search(len(heads), func(i int) bool { return compare(i, lo) >= 0 })
	to := sort.Search(len(heads), func(i int) bool { return compare(i, hi) > 0 })
	for _, id := range heads[from:to] {
		if matches(l.Atom, tab.Atom(id)) {
			visit(id)
		}
	}
	for id := range c.tail {
		if matches(l.Atom, tab.Atom(id)) {
			visit(id)
		}
	}
}

// matches reports whether the ground atom a agrees with the pattern p on
// predicate, arity and every ground argument of p.
func matches(p, a ast.Atom) bool {
	if a.Pred != p.Pred || len(a.Args) != len(p.Args) {
		return false
	}
	for j, t := range p.Args {
		if t.Ground() && !t.Equal(a.Args[j]) {
			return false
		}
	}
	return true
}

// each calls f for every live instance of the snapshot headed by atom a.
func (c *snapCut) each(s *Snapshot, a interp.AtomID, f func(int32)) {
	if int(a)+1 < len(c.idx.off) {
		for _, i := range c.idx.inst[c.idx.off[a]:c.idx.off[a+1]] {
			if i >= c.limit {
				break
			}
			if len(s.dead) > 0 {
				if _, gone := s.dead[i]; gone {
					continue
				}
			}
			f(i)
		}
	}
	for _, i := range c.tail[a] {
		f(i)
	}
}

// cutSlice cuts the goal's slice from the snapshot's ground program: the
// closure of the goal's atoms under head (either sign) → body over the live
// instances, emitted in Rules order over a sub-table of the snapshot's atom
// table.
func (s *Snapshot) cutSlice(ctx context.Context, goal []ast.Literal) (*ground.Program, error) {
	c := s.cutter()
	tab := s.gp.Tab
	nAtoms := tab.Len()
	atoms := newRankSet(nAtoms)
	picked := interp.NewBitset(len(s.rules))
	var work []interp.AtomID
	visit := func(a interp.AtomID) {
		// A ground goal atom can be interned by a concurrent write after
		// nAtoms was read; it heads no instance this snapshot pins.
		if int(a) < nAtoms && atoms.add(int(a)) {
			work = append(work, a)
		}
	}
	for _, l := range goal {
		c.seed(tab, l, visit)
	}
	nRules, nBody := 0, 0
	pick := func(i int32) {
		picked.Set(int(i))
		body := s.rules[i].Body
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
		c.each(s, a, pick)
	}

	ids := atoms.freeze()
	remap := func(l interp.Lit) interp.Lit { return interp.MkLit(atoms.rank(l.Atom()), l.Neg()) }
	rules := make([]ground.Rule, 0, nRules)
	arena := make([]interp.Lit, nBody)
	picked.Range(func(i int) bool {
		r := &s.rules[i]
		var body []interp.Lit
		if n := len(r.Body); n > 0 {
			body, arena = arena[:n:n], arena[n:]
			for j, l := range r.Body {
				body[j] = remap(l)
			}
		}
		rules = append(rules, ground.Rule{Head: remap(r.Head), Body: body, Comp: r.Comp, Src: r.Src})
		return true
	})
	return &ground.Program{Src: s.gp.Src, Tab: tab.Sub(ids), Rules: rules}, nil
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
