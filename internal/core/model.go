package core

import (
	"sync"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/ground"
	"repro/internal/interp"
)

// Model is a (possibly partial) model of an ordered program in one
// component: a consistent set of ground literals with three-valued reading.
type Model struct {
	gp   *ground.Program // atom table and source program
	comp int
	in   *interp.Interp
	// rules is the number of ground rules the model was evaluated over,
	// fixed when it is built: the version's pinned prefix of the shared
	// program, or a slice's own rules. It bounds the answer sets the
	// model keeps (query.go).
	rules int

	// v is the view the model was evaluated over. A model derived from a
	// write's cone (cone.go) was evaluated over no view of the component;
	// viewFn builds it on demand, for Explain and the model checks.
	v      *eval.View
	viewFn func() *eval.View

	// idx is the lazily built literal index queries answer from, and
	// answers the answer sets kept by rendered query text (query.go).
	idxMu   sync.Mutex
	idx     map[litKey]*litBucket
	answers map[string]*Answers
}

// newModel wraps an interpretation evaluated over v, whose program has the
// given number of rules.
func newModel(v *eval.View, in *interp.Interp, rules int) *Model {
	return &Model{gp: v.G, comp: v.Comp, in: in, rules: rules, v: v}
}

// view returns the component's evaluation view, building it if the model
// was derived without one.
func (m *Model) view() *eval.View {
	if m.v != nil {
		return m.v
	}
	return m.viewFn()
}

// Component returns the position of the component the model belongs to.
func (m *Model) Component() int { return m.comp }

// ComponentName returns the name of the component the model belongs to.
func (m *Model) ComponentName() string {
	return m.gp.Src.Components[m.comp].Name
}

// Interp exposes the underlying interpretation.
func (m *Model) Interp() *interp.Interp { return m.in }

// Literals returns the member literals, sorted canonically.
func (m *Model) Literals() []ast.Literal { return m.in.Literals() }

// String renders the model as a sorted literal set.
func (m *Model) String() string { return m.in.String() }

// Len returns the number of member literals.
func (m *Model) Len() int { return m.in.Len() }

// Total reports whether every atom of the (relevant) Herbrand base is
// defined.
func (m *Model) Total() bool { return m.in.Total() }

// Value returns the three-valued truth of a ground atom. Atoms outside the
// relevant Herbrand base are Undef.
func (m *Model) Value(a ast.Atom) interp.Value {
	id, ok := m.gp.Tab.Lookup(a)
	if !ok {
		return interp.Undef
	}
	return m.in.Value(id)
}

// Holds reports whether the ground literal is a member of the model.
func (m *Model) Holds(l ast.Literal) bool {
	id, ok := m.gp.Tab.Lookup(l.Atom)
	if !ok {
		return false
	}
	return m.in.HasLit(interp.MkLit(id, l.Neg))
}

// Binding maps query variable names to ground terms.
type Binding map[string]ast.Term

// Query evaluates a conjunctive query against the model (see Answers) and
// returns one binding per solution, covering the query's variables.
func (m *Model) Query(q ast.Query) []Binding { return m.Answers(q).Bindings() }

// Explain returns the Definition 2 statuses of every visible ground rule
// whose head is on the given atom, as human-readable lines — a debugging
// aid for understanding why a literal is (or is not) in the model.
func (m *Model) Explain(a ast.Atom) []string {
	tab := m.gp.Tab
	id, ok := tab.Lookup(a)
	if !ok {
		return []string{a.String() + ": not in the relevant Herbrand base"}
	}
	var out []string
	v := m.view()
	for r := 0; r < v.NumRules(); r++ {
		if v.Head(r).Atom() != id {
			continue
		}
		st := v.Statuses(r, m.in)
		line := v.G.RuleString(v.GroundRule(r)) + "  ["
		line += "component " + v.G.Src.Components[v.RuleComp(r)].Name
		if st.Applied {
			line += ", applied"
		} else if st.Applicable {
			line += ", applicable"
		}
		if st.Blocked {
			line += ", blocked"
		}
		if st.Overruled {
			line += ", overruled"
		}
		if st.Defeated {
			line += ", defeated"
		}
		line += "]"
		out = append(out, line)
	}
	if len(out) == 0 {
		out = []string{a.String() + ": no visible rules define it"}
	}
	return out
}
