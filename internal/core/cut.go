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

// progIndex indexes the first n instances of one ground program by head
// atom and by body atom. It never looks at a dead set, so every snapshot
// over the program can share it: a snapshot filters its own dead instances
// at use and indexes its own instances past n (its tail) separately. Goal
// cuts walk it from heads to bodies; a write's cone (cone.go) walks it
// from bodies to heads.
type progIndex struct {
	rules []ground.Rule // the indexed instances: the program's Rules[:n]
	n     int
	// head is a CSR over head atom ids: the instances headed by atom a, of
	// either sign, ascending.
	head csr
	// body is a CSR over body atom ids: the instances with a or ¬a in their
	// body, ascending, an instance once per occurrence. Only cones read it,
	// so it is built on the first one: goal cuts never hold it.
	bodyOnce sync.Once
	body     csr
	// heads lists the atoms heading at least one indexed instance, ordered
	// by (predicate symbol id, first-argument id), so the atoms matching a
	// goal literal's predicate and bound first argument are one range.
	heads []interp.AtomID
	// comps counts the indexed instances of each component.
	comps []int32
}

// csr maps atom ids to instance indexes: those of atom a are
// at[off[a]:off[a+1]].
type csr struct{ off, at []int32 }

// newCSR builds a CSR over nAtoms atom ids from the (atom, instance) pairs
// visit reports in ascending instance order. It calls visit twice, to
// count and to fill.
func newCSR(nAtoms int, visit func(pair func(a interp.AtomID, i int32))) csr {
	c := csr{off: make([]int32, nAtoms+1)}
	visit(func(a interp.AtomID, _ int32) { c.off[a+1]++ })
	for a := 0; a < nAtoms; a++ {
		c.off[a+1] += c.off[a]
	}
	// Fill by advancing each atom's start, then shift the starts back.
	c.at = make([]int32, c.off[nAtoms])
	visit(func(a interp.AtomID, i int32) {
		c.at[c.off[a]] = i
		c.off[a]++
	})
	copy(c.off[1:], c.off[:nAtoms])
	c.off[0] = 0
	return c
}

// of returns the instances of atom a; none for an atom interned after the
// index was built.
func (c *csr) of(a interp.AtomID) []int32 {
	if int(a)+1 >= len(c.off) {
		return nil
	}
	return c.at[c.off[a]:c.off[a+1]]
}

// progIndexCell holds the index of one ground program. Every snapshot over
// the program shares the cell; the index is built on the first read that
// needs it — a cold goal or a read after a write — never when the program
// is grounded or written.
type progIndexCell struct {
	mu  sync.Mutex
	idx *progIndex
}

// forRules returns an index usable for a snapshot pinning rules, building
// one when there is none yet or when the instances past the indexed
// prefix have grown as long as the prefix itself — so rebuilds cost O(1)
// amortised per appended instance.
func (c *progIndexCell) forRules(gp *ground.Program, rules []ground.Rule) *progIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.idx == nil {
		c.idx = buildProgIndex(gp, rules)
	} else if tail := len(rules) - c.idx.n; tail > 0 && tail >= c.idx.n {
		c.idx = buildProgIndex(gp, rules)
	}
	return c.idx
}

func buildProgIndex(gp *ground.Program, rules []ground.Rule) *progIndex {
	if obs.On() {
		mSliceIndexBuilds.Inc()
	}
	tab := gp.Tab
	nAtoms := tab.Len() // every atom of rules was interned before they were published
	idx := &progIndex{rules: rules, n: len(rules), comps: make([]int32, gp.NumComponents())}
	idx.head = newCSR(nAtoms, func(pair func(interp.AtomID, int32)) {
		for i := range rules {
			pair(rules[i].Head.Atom(), int32(i))
		}
	})
	for i := range rules {
		idx.comps[rules[i].Comp]++
	}

	type keyed struct {
		sym, first term.ID
		id         interp.AtomID
	}
	nHeads := 0
	for a := 0; a < nAtoms; a++ {
		if idx.head.off[a+1] > idx.head.off[a] {
			nHeads++
		}
	}
	keys := make([]keyed, 0, nHeads)
	for a := 0; a < nAtoms; a++ {
		if idx.head.off[a+1] > idx.head.off[a] {
			sym, first := headKey(tab.Key(interp.AtomID(a)))
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

// bodies returns the body CSR, building it on first use over the atoms the
// head CSR covers.
func (idx *progIndex) bodies() *csr {
	idx.bodyOnce.Do(func() {
		idx.body = newCSR(len(idx.head.off)-1, func(pair func(interp.AtomID, int32)) {
			for i := range idx.rules {
				for _, l := range idx.rules[i].Body {
					pair(l.Atom(), int32(i))
				}
			}
		})
	})
	return &idx.body
}

// headKey is an atom's position in progIndex.heads, read from its stored
// key: its predicate symbol id and its first argument's id (term.None for
// a nullary atom).
func headKey(key []term.ID) (sym, first term.ID) {
	if len(key) > 1 {
		return key[0], key[1]
	}
	return key[0], term.None
}

// snapCut is what one snapshot cuts with: the shared index, how much of it
// the snapshot pins, the snapshot's own live tail instances by head atom
// and by body atom, and its live instances per component.
type snapCut struct {
	idx         *progIndex
	limit       int32 // indexed instances below this index are in the snapshot
	tail, btail tailIndex
	live        []int32
}

// tailIndex maps atoms to a snapshot's live tail instances: (atom,
// instance) pairs sorted by atom, then instance. Every version a write
// publishes resolves its own, so it is one sort of the tail rather than a
// map of slices: no allocation per atom.
type tailIndex struct {
	atoms []interp.AtomID
	inst  []int32
}

// newTailIndex builds the index of pairs packed as atom<<32 | instance.
func newTailIndex(pairs []uint64) tailIndex {
	slices.Sort(pairs)
	t := tailIndex{atoms: make([]interp.AtomID, len(pairs)), inst: make([]int32, len(pairs))}
	for j, p := range pairs {
		t.atoms[j], t.inst[j] = interp.AtomID(p>>32), int32(uint32(p))
	}
	return t
}

// of returns the tail instances of atom a, ascending.
func (t *tailIndex) of(a interp.AtomID) []int32 {
	lo, found := slices.BinarySearch(t.atoms, a)
	if !found {
		return nil
	}
	hi := lo + 1
	for hi < len(t.atoms) && t.atoms[hi] == a {
		hi++
	}
	return t.inst[lo:hi]
}

// cutter returns the snapshot's cut state, resolving it on first use.
func (s *Snapshot) cutter() *snapCut {
	s.cutOnce.Do(func() {
		idx := s.index.forRules(s.gp, s.rules)
		c := &snapCut{idx: idx, limit: int32(min(idx.n, len(s.rules))), live: slices.Clone(idx.comps)}
		for _, r := range idx.rules[c.limit:] {
			c.live[r.Comp]--
		}
		for i := range s.dead {
			if i < c.limit {
				c.live[s.rules[i].Comp]--
			}
		}
		var heads, bodies []uint64
		pair := func(a interp.AtomID, i int) uint64 { return uint64(a)<<32 | uint64(i) }
		for i := idx.n; i < len(s.rules); i++ {
			if _, gone := s.dead[int32(i)]; gone {
				continue
			}
			r := &s.rules[i]
			c.live[r.Comp]++
			heads = append(heads, pair(r.Head.Atom(), i))
			for _, l := range r.Body {
				bodies = append(bodies, pair(l.Atom(), i))
			}
		}
		c.tail, c.btail = newTailIndex(heads), newTailIndex(bodies)
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
	pat, ok := keyPattern(tab.TermTable(), l.Atom)
	if !ok {
		return
	}
	lo, hi := term.ID(math.MinInt32), term.ID(math.MaxInt32)
	if len(pat) > 1 && pat[1] != term.None {
		lo, hi = pat[1], pat[1]
	}
	heads := c.idx.heads
	compare := func(i int, first term.ID) int {
		hs, hf := headKey(tab.Key(heads[i]))
		if hs != pat[0] {
			return cmp.Compare(hs, pat[0])
		}
		return cmp.Compare(hf, first)
	}
	from := sort.Search(len(heads), func(i int) bool { return compare(i, lo) >= 0 })
	to := sort.Search(len(heads), func(i int) bool { return compare(i, hi) > 0 })
	for _, id := range heads[from:to] {
		if matches(pat, tab.Key(id)) {
			visit(id)
		}
	}
	for j, id := range c.tail.atoms {
		if (j == 0 || id != c.tail.atoms[j-1]) && matches(pat, tab.Key(id)) {
			visit(id)
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

// each calls f for every live instance of the snapshot headed by atom a.
func (c *snapCut) each(s *Snapshot, a interp.AtomID, f func(int32)) {
	c.pinned(s, c.idx.head.of(a), c.tail.of(a), f)
}

// eachBody calls f for every live instance of the snapshot with atom a in
// its body, once per occurrence.
func (c *snapCut) eachBody(s *Snapshot, a interp.AtomID, f func(int32)) {
	c.pinned(s, c.idx.bodies().of(a), c.btail.of(a), f)
}

// pinned calls f for the indexed instances the snapshot pins and has not
// killed, then for its tail instances.
func (c *snapCut) pinned(s *Snapshot, indexed, tail []int32, f func(int32)) {
	for _, i := range indexed {
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
	for _, i := range tail {
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
	nAtoms := s.nAtoms
	atoms := newRankSet(nAtoms)
	picked := interp.NewBitset(len(s.rules))
	var work []interp.AtomID
	visit := func(a interp.AtomID) {
		// A ground goal atom can be interned by a later write; it heads no
		// instance this snapshot pins.
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
	gp, _ := s.emitSlice(picked, atoms, nRules, nBody)
	return gp, nil
}

// emitSlice emits the picked instances in Rules order as a program over a
// sub-table of the snapshot's atom table holding the atoms of atoms, which
// must include every atom the picked instances mention; nRules and nBody
// size it. It also returns the sub-table's atoms: local atom j is the
// snapshot's ids[j].
func (s *Snapshot) emitSlice(picked *interp.Bitset, atoms *rankSet, nRules, nBody int) (*ground.Program, []interp.AtomID) {
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
	return &ground.Program{Src: s.gp.Src, Tab: s.gp.Tab.Sub(ids), Rules: rules}, ids
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
