// The [LV] top-down proof procedure, kept as a test oracle: the
// companion to the bottom-up fixpoint that §5 of the paper attributes to
// [LV] ("A Fixpoint Semantics for Ordered Logic"). It decides membership in
// the least model lfp(V) of a component without materialising the whole
// model:
//
//	a ground literal L is provable iff some visible rule r with head L has
//	(i) every body literal provable, and (ii) every competitor r' of r
//	(a rule with complementary head in a component not strictly above
//	C(r)) *refutable* — some body literal of r' has a provable complement.
//
// Soundness and completeness w.r.t. lfp(V) follow from stage induction:
// every literal of the least model enters at a finite stage, and its rule's
// body literals and its competitors' blocking literals all enter at
// earlier stages, so proof trees are well-founded. The procedure uses
// depth-first search with an in-progress set (cycles fail the current
// path) and memoises successes always, failures only when they did not
// depend on an in-progress goal. The tests check it against lfp(V), and
// B8 compares it with materialising the model.
package proof

import (
	"context"

	"repro/internal/eval"
	"repro/internal/interp"
	"repro/internal/interrupt"
)

// Prover answers least-model membership queries against a view.
type Prover struct {
	v       *eval.View
	proven  map[interp.Lit]bool // memo: literal is in lfp(V)
	failed  map[interp.Lit]bool // memo: literal is not in lfp(V)
	calls   int
	maxCall int
	ctx     context.Context // context of the in-flight ProveCtx call
	// inProgress is the DFS path set, pooled across ProveCtx calls. The
	// per-frame deferred deletes in prove leave it empty after every call
	// (deferred deletes run during error unwinds too); the clear in
	// ProveCtx is belt-and-braces. Pooling is safe because a Prover is
	// not reentrant: one goroutine uses it at a time.
	inProgress map[interp.Lit]bool
}

// New returns a prover over the view. maxCalls bounds the total recursive
// goal invocations per ProveCtx call tree (0 = 1<<24); the bound exists to
// guard against pathological blow-ups, not termination (the in-progress
// set already ensures termination).
func New(v *eval.View, maxCalls int) *Prover {
	if maxCalls == 0 {
		maxCalls = 1 << 24
	}
	return &Prover{
		v:          v,
		proven:     make(map[interp.Lit]bool),
		failed:     make(map[interp.Lit]bool),
		maxCall:    maxCalls,
		ctx:        context.Background(),
		inProgress: make(map[interp.Lit]bool),
	}
}

// ErrBudget reports that the call budget was exhausted.
type ErrBudget struct{}

// Error implements the error interface.
func (ErrBudget) Error() string { return "proof: call budget exceeded" }

// ProveCtx reports whether the ground literal is in the least model of the
// prover's component. Results are memoised across calls. The goal
// recursion polls the context every 256 goal invocations (and once up
// front), so a cancelled or expired context fails the proof with an
// interrupt.Error.
// Memoised results accumulated before the interruption are kept — they
// are sound, only the in-flight call tree is abandoned.
func (p *Prover) ProveCtx(ctx context.Context, l interp.Lit) (bool, error) {
	if err := interrupt.Check(ctx, "proof: goal entry"); err != nil {
		return false, err
	}
	p.calls = 0
	p.ctx = ctx
	clear(p.inProgress)
	ok, _, err := p.prove(l, p.inProgress)
	return ok, err
}

// prove returns (provable, pure, err); pure is false when the failure
// depended on an in-progress goal (such failures must not be memoised:
// the goal might succeed on a different path).
func (p *Prover) prove(l interp.Lit, inProgress map[interp.Lit]bool) (bool, bool, error) {
	if p.proven[l] {
		return true, true, nil
	}
	if p.failed[l] {
		return false, true, nil
	}
	if inProgress[l] {
		return false, false, nil // cycle: fail this path, impurely
	}
	p.calls++
	if p.calls > p.maxCall {
		return false, true, ErrBudget{}
	}
	if p.calls%256 == 0 {
		if err := interrupt.Check(p.ctx, "proof: goal recursion"); err != nil {
			return false, true, err
		}
	}
	inProgress[l] = true
	defer delete(inProgress, l)

	pure := true
	for _, r := range p.v.HeadRules(l) {
		ok, rulePure, err := p.proveViaRule(int(r), inProgress)
		if err != nil {
			return false, true, err
		}
		if ok {
			p.proven[l] = true
			return true, true, nil
		}
		pure = pure && rulePure
	}
	if pure {
		p.failed[l] = true
	}
	return false, pure, nil
}

func (p *Prover) proveViaRule(r int, inProgress map[interp.Lit]bool) (bool, bool, error) {
	pure := true
	for _, b := range p.v.Body(r) {
		ok, subPure, err := p.prove(b, inProgress)
		if err != nil {
			return false, true, err
		}
		pure = pure && subPure
		if !ok {
			return false, pure, nil
		}
	}
	// Refute every competitor: prove the complement of one of its body
	// literals (an empty-bodied competitor is irrefutable).
	for _, c := range p.v.Competitors(r) {
		refuted := false
		for _, b := range p.v.Body(int(c)) {
			ok, subPure, err := p.prove(b.Complement(), inProgress)
			if err != nil {
				return false, true, err
			}
			pure = pure && subPure
			if ok {
				refuted = true
				break
			}
		}
		if !refuted {
			return false, pure, nil
		}
	}
	return true, pure, nil
}
