package core

import (
	"context"
	"slices"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/relevance"
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

// sliceModel returns the least model of the goal's slice in component i
// through the snapshot's slice cache, never routed to the component's
// model: the cut path called directly. A miss the route would have cut
// counts toward the line as it does in production.
func (s *Snapshot) sliceModel(ctx context.Context, i int, goal []ast.Literal) (*Model, error) {
	gs, _ := s.goalSliceFor(goal, relevance.GoalKey(goal), i)
	return s.sliceLeast(ctx, i, gs)
}

// cutAnswers answers q in comp from the goal's slice, as an answer miss
// below the route's line does, whatever the snapshot's tally.
func (s *Snapshot) cutAnswers(ctx context.Context, comp string, q ast.Query) (*Answers, error) {
	i, err := s.resolve(comp)
	if err != nil {
		return nil, err
	}
	m, err := s.sliceModel(ctx, i, q.Body)
	if err != nil {
		return nil, err
	}
	return m.Answers(q), nil
}

// liveComps returns the snapshot's live instances per component.
func (s *Snapshot) liveComps() []int32 {
	s.resolveLive()
	return s.live
}

// AppendJSON appends the answers' encoding (Answers.JSON) to buf.
func (a *Answers) AppendJSON(buf []byte) []byte { return append(buf, a.JSON()...) }

// CopyDirTo copies the files of a durability directory.
func CopyDirTo(src, dst string) error { return copyDirTo(src, dst) }
