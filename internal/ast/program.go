package ast

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Component is a named negative program: one module/object of an ordered
// program. Components with smaller order are more specific; they inherit
// (and may overrule) the rules of the components above them.
type Component struct {
	Name  string
	Rules []*Rule
}

// AddRule appends a rule to the component.
func (c *Component) AddRule(r *Rule) { c.Rules = append(c.Rules, r) }

// IsSeminegative reports whether every rule head in the component is
// positive.
func (c *Component) IsSeminegative() bool {
	for _, r := range c.Rules {
		if r.Head.Neg {
			return false
		}
	}
	return true
}

// IsPositive reports whether every rule in the component is a Horn clause.
func (c *Component) IsPositive() bool {
	for _, r := range c.Rules {
		if !r.IsPositive() {
			return false
		}
	}
	return true
}

// String renders the component as a module block in the surface syntax.
func (c *Component) String() string {
	var b strings.Builder
	b.WriteString("module ")
	WriteName(&b, c.Name)
	b.WriteString(" {\n")
	for _, r := range c.Rules {
		b.WriteString("  ")
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.String()
}

// Edge declares Child < Parent in the component order: Child is more
// specific and inherits Parent's rules.
type Edge struct {
	Child, Parent string
}

// OrderedProgram is a finite partially-ordered set of components. The
// order is the reflexive-transitive closure of the Edges (child < parent);
// it must be acyclic across distinct components.
type OrderedProgram struct {
	Components []*Component
	Edges      []Edge

	index map[string]int // component name -> position in Components
	// less is the transitive closure of the strict order as an n×n bit
	// matrix by position: row i, stride uint64 words long, holds bit j
	// when i < j. It is nil until Validate succeeds.
	less   []uint64
	stride int
}

// NewOrderedProgram returns an empty ordered program.
func NewOrderedProgram() *OrderedProgram {
	return &OrderedProgram{index: make(map[string]int)}
}

// AddComponent appends a component; the name must be fresh.
func (p *OrderedProgram) AddComponent(c *Component) error {
	if p.index == nil {
		p.index = make(map[string]int)
	}
	if _, dup := p.index[c.Name]; dup {
		return fmt.Errorf("duplicate component %q", c.Name)
	}
	p.index[c.Name] = len(p.Components)
	p.Components = append(p.Components, c)
	p.less = nil
	return nil
}

// Component returns the component with the given name, or nil.
func (p *OrderedProgram) Component(name string) *Component {
	i, ok := p.index[name]
	if !ok {
		return nil
	}
	return p.Components[i]
}

// ComponentIndex returns the position of the named component and whether it
// exists. Positions are stable and used as component ids by the grounder.
func (p *OrderedProgram) ComponentIndex(name string) (int, bool) {
	i, ok := p.index[name]
	return i, ok
}

// AddEdge declares child < parent. Both components must already exist.
func (p *OrderedProgram) AddEdge(child, parent string) error {
	if _, ok := p.index[child]; !ok {
		return fmt.Errorf("unknown component %q in order declaration", child)
	}
	if _, ok := p.index[parent]; !ok {
		return fmt.Errorf("unknown component %q in order declaration", parent)
	}
	if child == parent {
		return fmt.Errorf("component %q cannot extend itself", child)
	}
	p.Edges = append(p.Edges, Edge{Child: child, Parent: parent})
	p.less = nil
	return nil
}

// Validate checks that the declared order is a strict partial order
// (acyclic) and computes its transitive closure.
func (p *OrderedProgram) Validate() error {
	n := len(p.Components)
	stride := (n + 63) / 64
	less := make([]uint64, n*stride)
	adj := make([][]int, n)
	for _, e := range p.Edges {
		ci, pi := p.index[e.Child], p.index[e.Parent]
		adj[ci] = append(adj[ci], pi)
	}
	// Transitive closure by DFS from each node, the row doubling as the
	// visited set; cycle detection via the closure itself (x < x is a
	// cycle).
	var stack []int
	for s := 0; s < n; s++ {
		row := less[s*stride : (s+1)*stride]
		stack = append(stack[:0], adj[s]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if row[v>>6]&(1<<(v&63)) != 0 {
				continue
			}
			row[v>>6] |= 1 << (v & 63)
			stack = append(stack, adj[v]...)
		}
		if row[s>>6]&(1<<(s&63)) != 0 {
			return fmt.Errorf("component order contains a cycle through %q", p.Components[s].Name)
		}
	}
	p.less, p.stride = less, stride
	return nil
}

// Less reports whether component i is strictly below component j (i < j,
// i.e. i is more specific). Validate must have succeeded.
func (p *OrderedProgram) Less(i, j int) bool {
	return p.less != nil && p.less[i*p.stride+j>>6]&(1<<(j&63)) != 0
}

// Incomparable reports whether distinct components i and j are unrelated
// in the order (the paper's C_i <> C_j).
func (p *OrderedProgram) Incomparable(i, j int) bool {
	return i != j && !p.Less(i, j) && !p.Less(j, i)
}

// Above returns the positions of all components j with i <= j: the
// component itself plus everything it inherits from. The result is sorted.
func (p *OrderedProgram) Above(i int) []int {
	out := []int{i}
	for j := range p.Components {
		if p.Less(i, j) {
			out = append(out, j)
		}
	}
	sort.Ints(out)
	return out
}

// VisibleRules returns ground(C*)'s generator: every rule visible from the
// component at position i — its own rules and those of the components above
// it — paired with the position of the component the rule comes from.
func (p *OrderedProgram) VisibleRules(i int) []ComponentRule {
	var out []ComponentRule
	for _, j := range p.Above(i) {
		for _, r := range p.Components[j].Rules {
			out = append(out, ComponentRule{Comp: j, Rule: r})
		}
	}
	return out
}

// ComponentRule pairs a rule with the position of its owning component.
type ComponentRule struct {
	Comp int
	Rule *Rule
}

// Predicates returns the set of predicate keys occurring anywhere in the
// program, sorted by name then arity.
func (p *OrderedProgram) Predicates() []PredKey {
	seen := make(map[PredKey]bool)
	var keys []PredKey
	add := func(k PredKey) {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, c := range p.Components {
		for _, r := range c.Rules {
			add(r.Head.Atom.Key())
			for _, l := range r.Body {
				add(l.Atom.Key())
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Name != keys[j].Name {
			return keys[i].Name < keys[j].Name
		}
		return keys[i].Arity < keys[j].Arity
	})
	return keys
}

// Constants returns all constants (symbols and integers) occurring in the
// program, sorted canonically: integers by value, then symbols by name.
// Two constants are the same only when kind and value agree, so the symbol
// "1" and the integer 1 are both returned.
func (p *OrderedProgram) Constants() []Term {
	n := 0 // argument positions bound the distinct constants of atoms
	for _, c := range p.Components {
		for _, r := range c.Rules {
			n += len(r.Head.Atom.Args)
			for _, l := range r.Body {
				n += len(l.Atom.Args)
			}
		}
	}
	syms := make(map[Sym]Term, n)
	ints := make(map[Int]Term)
	var symOrder []Sym
	var intOrder []Int
	var walk func(t Term)
	walk = func(t Term) {
		switch c := t.(type) {
		case Sym:
			if _, ok := syms[c]; !ok {
				syms[c] = t
				symOrder = append(symOrder, c)
			}
		case Int:
			if _, ok := ints[c]; !ok {
				ints[c] = t
				intOrder = append(intOrder, c)
			}
		case Compound:
			for _, a := range c.Args {
				walk(a)
			}
		}
	}
	walkExpr := func(e Expr) {
		var w func(Expr)
		w = func(e Expr) {
			switch e := e.(type) {
			case TermExpr:
				walk(e.Term)
			case BinExpr:
				w(e.L)
				w(e.R)
			}
		}
		w(e)
	}
	for _, c := range p.Components {
		for _, r := range c.Rules {
			for _, t := range r.Head.Atom.Args {
				walk(t)
			}
			for _, l := range r.Body {
				for _, t := range l.Atom.Args {
					walk(t)
				}
			}
			for _, b := range r.Builtins {
				walkExpr(b.L)
				walkExpr(b.R)
			}
		}
	}
	// The CompareTerms order — integers, then symbols — sorted per kind on
	// the values; the result holds the program's own interface values, not
	// re-boxed copies.
	slices.Sort(intOrder)
	slices.Sort(symOrder)
	out := make([]Term, 0, len(intOrder)+len(symOrder))
	for _, i := range intOrder {
		out = append(out, ints[i])
	}
	for _, s := range symOrder {
		out = append(out, syms[s])
	}
	return out
}

// Functors returns the function symbols (name/arity) occurring in program
// terms, sorted.
func (p *OrderedProgram) Functors() []PredKey {
	seen := make(map[PredKey]bool)
	var out []PredKey
	var walk func(t Term)
	walk = func(t Term) {
		if c, ok := t.(Compound); ok {
			k := PredKey{c.Functor, len(c.Args)}
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
			for _, a := range c.Args {
				walk(a)
			}
		}
	}
	for _, c := range p.Components {
		for _, r := range c.Rules {
			for _, t := range r.Head.Atom.Args {
				walk(t)
			}
			for _, l := range r.Body {
				for _, t := range l.Atom.Args {
					walk(t)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// NumRules returns the total number of rules across all components.
func (p *OrderedProgram) NumRules() int {
	n := 0
	for _, c := range p.Components {
		n += len(c.Rules)
	}
	return n
}

// String renders the whole program: module blocks followed by order
// declarations, in the surface syntax accepted by the parser.
func (p *OrderedProgram) String() string {
	var b strings.Builder
	for i, c := range p.Components {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(c.String())
	}
	for _, e := range p.Edges {
		b.WriteString("order ")
		WriteName(&b, e.Child)
		b.WriteString(" < ")
		WriteName(&b, e.Parent)
		b.WriteString(".\n")
	}
	return b.String()
}

// SingleComponent wraps a plain negative program (a rule list) as an
// ordered program with one component named name.
func SingleComponent(name string, rules []*Rule) *OrderedProgram {
	p := NewOrderedProgram()
	c := &Component{Name: name}
	c.Rules = append(c.Rules, rules...)
	if err := p.AddComponent(c); err != nil {
		panic(err) // fresh program: cannot have a duplicate
	}
	if err := p.Validate(); err != nil {
		panic(err) // no edges: cannot have a cycle
	}
	return p
}
