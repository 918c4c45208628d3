package core

import (
	"context"
	"fmt"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/interp"
	"repro/internal/interrupt"
	"repro/internal/proof"
	"repro/internal/stable"
)

// acquireProver takes the state's 1-slot prover semaphore — honouring the
// caller's context while queueing — and returns the memoising prover,
// built over view() on first use, plus the release function. The prover
// is non-reentrant, so callers hold the slot across every Prover method
// call.
func (st *compState) acquireProver(ctx context.Context, view func() *eval.View) (*proof.Prover, func(), error) {
	select {
	case st.proverSem <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, &interrupt.Error{Stage: "core: prover queue", Cause: ctx.Err()}
	}
	if st.prover == nil {
		st.prover = proof.New(view(), 0)
	}
	return st.prover, func() { <-st.proverSem }, nil
}

// ProveCtx answers a least-model membership query for one ground literal
// in the component as of this snapshot (see Engine.ProveCtx). On a
// goal-directed engine (Config.GoalDirected) the proof runs over the
// literal's slice of the ground program; the answer is identical either
// way.
func (s *Snapshot) ProveCtx(ctx context.Context, comp string, l ast.Literal) (bool, error) {
	i, err := s.resolve(comp)
	if err != nil {
		return false, err
	}
	if !l.Atom.Ground() {
		return false, fmt.Errorf("core: Prove needs a ground literal, got %s", l)
	}
	if s.eng.cfg.GoalDirected {
		return s.proveGoalDirected(ctx, i, l)
	}
	id, ok := s.gp.Tab.Lookup(l.Atom)
	if !ok {
		return false, nil
	}
	pr, release, err := s.comp(i).acquireProver(ctx, func() *eval.View { return s.viewAt(i) })
	if err != nil {
		return false, err
	}
	defer release()
	return pr.ProveCtx(ctx, interp.MkLit(id, l.Neg))
}

// ProveExplainCtx proves the literal goal-directedly and, on success,
// returns the rendered derivation tree as of this snapshot (see
// Engine.ProveExplainCtx).
func (s *Snapshot) ProveExplainCtx(ctx context.Context, comp string, l ast.Literal) (string, bool, error) {
	i, err := s.resolve(comp)
	if err != nil {
		return "", false, err
	}
	if !l.Atom.Ground() {
		return "", false, fmt.Errorf("core: ProveExplain needs a ground literal, got %s", l)
	}
	id, ok := s.gp.Tab.Lookup(l.Atom)
	if !ok {
		return "", false, nil
	}
	pr, release, err := s.comp(i).acquireProver(ctx, func() *eval.View { return s.viewAt(i) })
	if err != nil {
		return "", false, err
	}
	defer release()
	tree, ok, err := pr.ExplainCtx(ctx, interp.MkLit(id, l.Neg))
	if err != nil || !ok {
		return "", false, err
	}
	return tree.Render(pr), true, nil
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
// in the component with the goal-directed proof procedure (no full model
// is materialised), as of the current snapshot. Literals over atoms
// outside the relevant Herbrand base are unprovable. Both the wait for the
// per-component prover slot and the goal recursion itself honour the
// context (see proof.Prover.ProveCtx for the checkpoints).
func (e *Engine) ProveCtx(ctx context.Context, comp string, l ast.Literal) (bool, error) {
	return e.Current().ProveCtx(ctx, comp, l)
}

// ProveExplainCtx proves the literal goal-directedly and, on success,
// returns the rendered derivation tree: the firing rule, its body
// subproofs, and one blocking proof per competitor. The context is
// honoured as in ProveCtx.
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
