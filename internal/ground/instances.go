package ground

import (
	"math/bits"
	"strings"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/interp"
)

// The resident program. A ground program's instances live in columns of
// ids — head literal, component, body offset and source rule — and their
// body literals in one more, so nothing kept per instance is a pointer and
// a collection cycle does not trace the program. The columns are chunked
// and append-only: an update appends instances past every published
// length and never moves one, so the first n instances captured at one
// version (Instances) stay valid while later versions append.

// column is an append-only array of T kept in chunks of 1<<shift entries
// behind an atomically published directory. The one writer fills entries
// past every length a reader holds and publishes a grown directory by
// swapping in a new one, so readers index it without a lock and no entry
// moves once written.
type column[T any] struct {
	dir   atomic.Pointer[[][]T]
	shift uint8
}

func (c *column[T]) mask() int { return 1<<c.shift - 1 }

// at returns entry i.
func (c *column[T]) at(i int) T {
	return (*c.dir.Load())[i>>c.shift][i&c.mask()]
}

// ref returns the address of entry i, which must exist. Writer only.
func (c *column[T]) ref(i int) *T {
	return &(*c.dir.Load())[i>>c.shift][i&c.mask()]
}

// run returns entries i to i+n, which lie in one chunk.
func (c *column[T]) run(i, n int) []T {
	j := i & c.mask()
	return (*c.dir.Load())[i>>c.shift][j : j+n : j+n]
}

// put writes entry i, growing the directory to reach it. Writer only.
func (c *column[T]) put(i int, v T) {
	d := c.dir.Load()
	if d == nil || i>>c.shift >= len(*d) {
		d = c.grow(i >> c.shift)
	}
	(*d)[i>>c.shift][i&c.mask()] = v
}

// reserve returns the first offset at or past next where n entries lie in
// one chunk, growing the directory to reach them. Writer only.
func (c *column[T]) reserve(next, n int) int {
	if size := 1 << c.shift; next%size+n > size {
		next += size - next%size
	}
	if d := c.dir.Load(); n > 0 && (d == nil || (next+n-1)>>c.shift >= len(*d)) {
		c.grow((next + n - 1) >> c.shift)
	}
	return next
}

// grow publishes a directory reaching chunk k. The new directory may
// share its backing array with the old one, but only past the old one's
// length, which no reader of the old one indexes.
func (c *column[T]) grow(k int) *[][]T {
	dir := make([][]T, 0, 16)
	if d := c.dir.Load(); d != nil {
		dir = *d
	}
	for len(dir) <= k {
		dir = append(dir, make([]T, 1<<c.shift))
	}
	c.dir.Store(&dir)
	return &dir
}

// exact makes the column one chunk of exactly n entries that is never
// grown: a shift past any index keeps every entry in chunk 0. The
// directory and its one slot are one allocation.
func (c *column[T]) exact(n int) {
	d := &struct {
		dir  [][]T
		slot [1][]T
	}{}
	d.slot[0] = make([]T, n)
	d.dir = d.slot[:]
	c.shift = 31
	c.dir.Store(&d.dir)
}

// ruleTable names the source rules instances are drawn from: rule k is
// the (k - start[c])-th rule of component c, numbering every component's
// rules in order, and nBody[k] is its body length — the number of body
// literals of every instance of it. Instances of facts asserted since
// grounding name no rule (-1): they have no body, and their rule is the
// fact of their head. maxBody is the longest body. A cut slice shares its
// program's table.
type ruleTable struct {
	src     *ast.OrderedProgram
	start   []int32
	nBody   []int32
	maxBody int
}

func newRuleTable(p *ast.OrderedProgram) *ruleTable {
	n := 0
	for _, c := range p.Components {
		n += len(c.Rules)
	}
	rt := &ruleTable{src: p, start: make([]int32, len(p.Components)), nBody: make([]int32, 0, n)}
	for ci, c := range p.Components {
		rt.start[ci] = int32(len(rt.nBody))
		for _, r := range c.Rules {
			rt.nBody = append(rt.nBody, int32(len(r.Body)))
			rt.maxBody = max(rt.maxBody, len(r.Body))
		}
	}
	return rt
}

func (rt *ruleTable) bodyLen(src int32) int {
	if src < 0 {
		return 0
	}
	return int(rt.nBody[src])
}

// inst is one instance's row: its head literal, its component's position,
// the offset of its body in the body-literal column and its source rule's
// number in the rule table. Sixteen bytes, none of them a pointer.
type inst struct {
	head interp.Lit
	comp int32
	body int32
	src  int32
}

// columns are a program's instances: one column of rows and one of body
// literals, written by one writer at a time (the grounder, under the
// engine's write lock, or a cut) and read by any number of readers through
// Instances. Instance i's body is lits[body:body+n] for its row's body
// offset and its rule's body length n; a body never straddles two chunks
// of lits. len and nLits are the writer's counts of instances and
// body-literal slots written, published or not.
type columns struct {
	rt   *ruleTable
	rows column[inst]
	lits column[interp.Lit]

	len, nLits int
}

// chunkShift sizes the chunks of a column expecting about n entries: a
// small program takes small chunks, a large one chunks of 4 096.
func chunkShift(n int) uint8 { return uint8(min(max(bits.Len(uint(n)), 4), 12)) }

// init sizes the chunks of an empty growable program expecting about
// estimate instances. A lits chunk holds the longest body.
func (c *columns) init(rt *ruleTable, estimate int) {
	c.rt = rt
	c.rows.shift = chunkShift(estimate)
	c.lits.shift = max(c.rows.shift+1, uint8(bits.Len(uint(rt.maxBody))))
}

// exact sizes the columns of a program that will hold exactly n instances
// with nBody body literals in all and then never grow.
func (c *columns) exact(rt *ruleTable, n, nBody int) {
	c.rt = rt
	c.rows.exact(n)
	c.lits.exact(nBody)
}

// add appends an instance with a body of n literals, which the caller
// writes into the returned slice; it stays unpublished until publish.
func (c *columns) add(head interp.Lit, comp int32, n int, src int32) []interp.Lit {
	off := c.nLits
	var body []interp.Lit
	if n > 0 {
		off = c.lits.reserve(off, n)
		body = c.lits.run(off, n)
		c.nLits = off + n
	}
	c.rows.put(c.len, inst{head: head, comp: comp, body: int32(off), src: src})
	c.len++
	return body
}

// bodyOf returns the body literals of the instance with row r.
func (c *columns) bodyOf(r inst) []interp.Lit {
	n := c.rt.bodyLen(r.src)
	if n == 0 {
		return nil // lits may have no chunk at all
	}
	return c.lits.run(int(r.body), n)
}

// publish republishes g.Rules over every instance written so far.
func (g *Program) publish() { g.Rules = Instances{g, g.cols.len} }

// Instances is the first n instances of a ground program: the program's
// columns and a length. A snapshot holds the prefix its version pinned;
// instances a later version appends are past it and never change it, so
// a prefix may be read from any goroutine while the writer appends. Index
// arguments must be below Len.
type Instances struct {
	g *Program
	n int
}

// Len returns the number of instances.
func (p Instances) Len() int { return p.n }

// At returns instance i's head literal, component position and body
// literals (shared; do not modify) from one read of its row.
func (p Instances) At(i int) (interp.Lit, int32, []interp.Lit) {
	c := &p.g.cols
	r := c.rows.at(i)
	return r.head, r.comp, c.bodyOf(r)
}

// Head returns instance i's head literal.
func (p Instances) Head(i int) interp.Lit { return p.g.cols.rows.at(i).head }

// Comp returns the position of instance i's component.
func (p Instances) Comp(i int) int32 { return p.g.cols.rows.at(i).comp }

// Body returns instance i's body literals (shared; do not modify).
func (p Instances) Body(i int) []interp.Lit {
	c := &p.g.cols
	return c.bodyOf(c.rows.at(i))
}

// Rule is a ground rule instance decoded from the columns for
// diagnostics: its head, its component's position, its body, and the
// source rule it instantiates (for a fact asserted since grounding, that
// fact).
type Rule struct {
	Head interp.Lit
	Comp int32
	Body []interp.Lit
	Src  *ast.Rule
}

// Rule decodes instance i.
func (p Instances) Rule(i int) Rule {
	c := &p.g.cols
	row := c.rows.at(i)
	r := Rule{Head: row.head, Comp: row.comp, Body: c.bodyOf(row)}
	if row.src >= 0 {
		r.Src = c.rt.src.Components[r.Comp].Rules[row.src-c.rt.start[r.Comp]]
	} else {
		r.Src = ast.Fact(ast.Literal{Atom: p.g.Tab.Atom(r.Head.Atom()), Neg: r.Head.Neg()})
	}
	return r
}

// RuleString renders instance i for diagnostics.
func (p Instances) RuleString(i int) string { return p.g.RuleString(p.Rule(i)) }

// Cut returns the program of the instances of p that picked holds, in
// order, over tab, a sub-table of p's atom table: remap takes a literal of
// p's table to tab's. nRules and nBody are the picked instances' number
// and body literals in all; the result's columns are sized exactly by
// them, so a small slice costs no more than its instances.
func (p Instances) Cut(tab *interp.Table, picked *interp.Bitset, nRules, nBody int, remap func(interp.Lit) interp.Lit) *Program {
	c := &p.g.cols
	out := &Program{Src: p.g.Src, Tab: tab}
	out.cols.exact(c.rt, nRules, nBody)
	picked.Range(func(i int) bool {
		row := c.rows.at(i)
		body := c.bodyOf(row)
		dst := out.cols.add(remap(row.head), row.comp, len(body), row.src)
		for j, l := range body {
			dst[j] = remap(l)
		}
		return true
	})
	out.publish()
	return out
}

// RuleString renders a ground rule instance for diagnostics.
func (g *Program) RuleString(r Rule) string {
	var b strings.Builder
	b.WriteString(g.Tab.LitString(r.Head))
	if len(r.Body) > 0 {
		b.WriteString(" :- ")
		for i, l := range r.Body {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.Tab.LitString(l))
		}
	}
	b.WriteByte('.')
	return b.String()
}
