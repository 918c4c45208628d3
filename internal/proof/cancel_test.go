// Cancellation checkpoints of the goal-directed prover: a dead context
// fails ProveCtx, and the stage run explanations are read from, with the
// interrupt sentinel, and the prover (with its memo tables) remains usable
// afterwards.
package proof_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/interp"
	"repro/internal/interrupt"
	"repro/internal/parser"
	"repro/internal/proof"
)

func TestProveCtxCancelled(t *testing.T) {
	v := viewOf(t, `
module c2 {
  bird(penguin). bird(pigeon).
  fly(X) :- bird(X).
  -ground_animal(X) :- bird(X).
}
module c1 extends c2 {
  ground_animal(penguin).
  -fly(X) :- ground_animal(X).
}
`, "c1")
	l, err := parser.ParseLiteral("fly(pigeon)")
	if err != nil {
		t.Fatal(err)
	}
	id, ok := v.G.Tab.Lookup(l.Atom)
	if !ok {
		t.Fatalf("atom %s not interned", l.Atom)
	}
	goal := interp.MkLit(id, l.Neg)

	pr := proof.New(v, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pr.ProveCtx(ctx, goal); !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("ProveCtx: err = %v, want ErrInterrupted", err)
	}
	if _, err := v.StagesCtx(ctx); !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("StagesCtx: err = %v, want ErrInterrupted", err)
	}
	// The prover survives an interrupted call: a live context proves the
	// same goal.
	got, err := pr.ProveCtx(context.Background(), goal)
	if err != nil || !got {
		t.Fatalf("ProveCtx after interrupt = %v, %v; want true", got, err)
	}
}
