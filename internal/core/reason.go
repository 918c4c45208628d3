package core

import (
	"context"
	"fmt"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/interrupt"
	"repro/internal/proof"
	"repro/internal/relevance"
	"repro/internal/stable"
)

// ProveCtx answers a least-model membership query for one ground literal
// in the component as of this snapshot (see Engine.ProveCtx): the literal
// holds iff it is in the model the snapshot keeps for the component. On a
// goal-directed engine (Config.GoalDirected) the model is the one the
// literal's goal-cache entry answers from, routed and tallied as a query
// of the literal would be; the answer is identical either way.
func (s *Snapshot) ProveCtx(ctx context.Context, comp string, l ast.Literal) (bool, error) {
	i, err := s.resolve(comp)
	if err != nil {
		return false, err
	}
	if !l.Atom.Ground() {
		return false, fmt.Errorf("core: Prove needs a ground literal, got %s", l)
	}
	if err := interrupt.Check(ctx, "core: prove"); err != nil {
		return false, err
	}
	goal := []ast.Literal{l}
	var key string
	if s.eng.cfg.GoalDirected {
		key = relevance.GoalKey(goal)
	}
	m, err := s.goalModel(ctx, i, goal, key)
	if err != nil {
		return false, err
	}
	return m.Holds(l), nil
}

// ProveExplainCtx returns the rendered derivation tree of the literal as
// of this snapshot, or ok=false when it is not in the least model (see
// Engine.ProveExplainCtx). Membership is read from the component's
// memoised least model, so a non-member costs no stage run; a member's
// tree is read off the V stages of the component's full view, which the
// component state keeps from its first explanation on.
func (s *Snapshot) ProveExplainCtx(ctx context.Context, comp string, l ast.Literal) (string, bool, error) {
	i, err := s.resolve(comp)
	if err != nil {
		return "", false, err
	}
	if !l.Atom.Ground() {
		return "", false, fmt.Errorf("core: ProveExplain needs a ground literal, got %s", l)
	}
	id, ok := s.gp.Tab.Lookup(l.Atom)
	if !ok || int(id) >= s.nAtoms { // an atom a later version interned
		return "", false, nil
	}
	lit := interp.MkLit(id, l.Neg)
	v := s.viewAt(i) // first, so a cold model's fixpoint runs over it
	m, err := s.leastModel(ctx, i)
	if err != nil || !m.in.HasLit(lit) {
		return "", false, err
	}
	stages, err := s.comp(i).stagesOf(ctx, v)
	if err != nil {
		return "", false, err
	}
	tree, ok, err := proof.Explain(v, stages, lit)
	if err != nil || !ok {
		return "", false, err
	}
	return tree.Render(v), true, nil
}

// ReasonCtx enumerates the stable models of the component as of this
// snapshot and returns its cautious and brave consequences (see
// Engine.ReasonCtx for why no partial Consequences value is ever
// returned).
func (s *Snapshot) ReasonCtx(ctx context.Context, comp string, opts stable.Options) (*Consequences, error) {
	v, err := s.View(comp)
	if err != nil {
		return nil, err
	}
	r, err := stable.ReasonCtx(ctx, v, s.eng.fillStable(opts))
	if err != nil {
		return nil, err
	}
	return &Consequences{r: r, tab: s.gp.Tab}, nil
}

// ProveCtx answers a least-model membership query for one ground literal
// in the component as of the current snapshot: membership in the least
// model the snapshot keeps (on a goal-directed engine, the model the
// literal's goal answers from). Literals over atoms outside the relevant
// Herbrand base are unprovable. A dead context fails the call up front,
// and the model computation, if one runs, honours it as LeastModelCtx
// does.
func (e *Engine) ProveCtx(ctx context.Context, comp string, l ast.Literal) (bool, error) {
	return e.Current().ProveCtx(ctx, comp, l)
}

// ProveExplainCtx returns, for a literal of the least model, the rendered
// derivation tree: the firing rule, its body subproofs, and one blocking
// proof per competitor. A component's first explanation in a version runs
// the fixpoint that records the stages the tree is read from, honouring
// the context as LeastModelCtx does; later ones reuse them.
func (e *Engine) ProveExplainCtx(ctx context.Context, comp string, l ast.Literal) (string, bool, error) {
	return e.Current().ProveExplainCtx(ctx, comp, l)
}

// Consequences holds cautious (every stable model) and brave (some stable
// model) inference results for one component.
type Consequences struct {
	r   *stable.Reasoning
	tab *interp.Table
}

// ReasonCtx enumerates the stable models of the component in the current
// snapshot and returns its cautious and brave consequences. Interruption,
// like an exhausted leaf budget, fails the whole call: cautious/brave
// consequences over a truncated model family would be unsound (cautious
// could contain literals a missing stable model refutes), so no partial
// Consequences value is returned.
func (e *Engine) ReasonCtx(ctx context.Context, comp string, opts stable.Options) (*Consequences, error) {
	return e.Current().ReasonCtx(ctx, comp, opts)
}

// NumModels returns the number of stable models inspected.
func (c *Consequences) NumModels() int { return c.r.NumModels }

// Cautious reports whether the ground literal holds in every stable model.
func (c *Consequences) Cautious(l ast.Literal) bool {
	id, ok := c.tab.Lookup(l.Atom)
	if !ok {
		return false
	}
	return c.r.HoldsCautiously(interp.MkLit(id, l.Neg))
}

// Brave reports whether the ground literal holds in some stable model.
func (c *Consequences) Brave(l ast.Literal) bool {
	id, ok := c.tab.Lookup(l.Atom)
	if !ok {
		return false
	}
	return c.r.HoldsBravely(interp.MkLit(id, l.Neg))
}

// CautiousLiterals returns the cautious consequences as sorted literals.
func (c *Consequences) CautiousLiterals() []ast.Literal { return c.r.Cautious.Literals() }
