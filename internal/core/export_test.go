package core

import (
	"context"
	"slices"

	"repro/internal/eval"
)

// SameAsRebuild reports whether m, the snapshot's memoised least model of
// the component, holds literal for literal the least model evaluated over
// a fresh view of the snapshot's pinned live instances — the rebuild a
// cone-derived model replaces, sharing no state with the memoised path.
// On a mismatch it returns the rebuilt model rendered.
func (s *Snapshot) SameAsRebuild(comp string, m *Model) (bool, string, error) {
	i, err := s.resolve(comp)
	if err != nil {
		return false, "", err
	}
	want, err := eval.NewViewOf(s.gp, i, s.rules, s.dead).LeastModelCtx(context.Background())
	if err != nil {
		return false, "", err
	}
	return slices.Equal(m.in.Lits(), want.Lits()), want.String(), nil
}
