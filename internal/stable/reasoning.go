package stable

import (
	"context"
	"errors"

	"repro/internal/eval"
	"repro/internal/interp"
)

// ErrNoStableModels reports that a program has no stable model in the
// queried component — impossible by Theorem 1 (the least model is
// assumption-free and maximal candidates exist), so it only surfaces when
// enumeration was cut short by options.
var ErrNoStableModels = errors.New("stable: no stable models found")

// Reasoning is the outcome of cautious/brave inference over the stable
// models of one component.
type Reasoning struct {
	// Cautious holds the literals true in every stable model (sceptical
	// consequences).
	Cautious *interp.Interp
	// Brave holds the literals true in at least one stable model
	// (credulous consequences). Brave is represented as two literal sets
	// rather than an interpretation because it may contain complementary
	// literals (different stable models may disagree); BraveLits lists
	// them explicitly.
	BraveLits []interp.Lit
	// NumModels is the number of stable models inspected.
	NumModels int
}

// ReasonCtx enumerates the stable models of the view's component and
// returns the cautious and brave consequences. A truncated enumeration
// (budget or interruption) fails the whole call: cautious and brave
// consequences are only sound over the complete stable-model family.
func ReasonCtx(ctx context.Context, v *eval.View, opts Options) (*Reasoning, error) {
	ms, err := StableModelsCtx(ctx, v, opts)
	if err != nil {
		return nil, err
	}
	if len(ms) == 0 {
		return nil, ErrNoStableModels
	}
	cautious := Intersection(ms)
	seen := make(map[interp.Lit]bool)
	var brave []interp.Lit
	for _, m := range ms {
		for _, l := range m.Lits() {
			if !seen[l] {
				seen[l] = true
				brave = append(brave, l)
			}
		}
	}
	return &Reasoning{Cautious: cautious, BraveLits: brave, NumModels: len(ms)}, nil
}

// HoldsCautiously reports whether the literal is in every stable model.
func (r *Reasoning) HoldsCautiously(l interp.Lit) bool { return r.Cautious.HasLit(l) }

// HoldsBravely reports whether the literal is in some stable model.
func (r *Reasoning) HoldsBravely(l interp.Lit) bool {
	for _, b := range r.BraveLits {
		if b == l {
			return true
		}
	}
	return false
}
