// Package proof builds derivation trees witnessing least-model membership
// for ordered logic programs: why a ground literal is in lfp(V) of a
// component, as the rule instance that derives it, the trees of its body
// literals, and one refuted body literal per competitor. The tree is read
// off the naive V stages of the component's view, so every subtree's goal
// enters the fixpoint strictly before its parent's. Membership itself is
// decided by the least model; the [LV] top-down proof procedure lives in
// this package's tests as an oracle checked against it.
package proof

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/eval"
	"repro/internal/interp"
	"repro/internal/interrupt"
)

// Tree is a derivation tree witnessing least-model membership: the goal
// literal, the rule instance that derives it, the subtrees proving its
// body, and one refutation (a proved complement of a body literal) for
// every competitor of the rule.
type Tree struct {
	Goal interp.Lit
	// Rule is the local index (in the view) of the firing rule.
	Rule int
	// Body holds one subtree per body literal.
	Body []*Tree
	// Refutations holds, per competitor rule index, the subtree proving
	// the complement of one of its body literals.
	Refutations []Refutation
}

// Refutation records why one competitor cannot stay non-blocked: Blocker
// proves the complement of one of its body literals.
type Refutation struct {
	Competitor int
	Blocker    *Tree
}

// ExplainCtx returns the derivation tree of the literal in the view's
// component, or ok=false when the literal is not in the least model. The
// witness is stage-respecting: every subtree's goal enters the fixpoint at
// a strictly earlier V stage than its parent, so the justification is
// well-founded (never circular) regardless of rule ordering. Shared
// subproofs make the tree a DAG; rendering elides repeats. The stage
// computation polls the context once per round.
func ExplainCtx(ctx context.Context, v *eval.View, l interp.Lit) (*Tree, bool, error) {
	stages, err := stagesOf(ctx, v, l)
	if err != nil {
		return nil, false, err
	}
	return explainFrom(v, l, stages)
}

// explainFrom builds the tree of l from stages that hold every literal
// entering the fixpoint up to l's stage. build and earlyBlocker read only
// literals staged strictly below their goal's, so stages past l's change
// nothing.
func explainFrom(v *eval.View, l interp.Lit, stages map[interp.Lit]int) (*Tree, bool, error) {
	if _, ok := stages[l]; !ok {
		return nil, false, nil
	}
	memo := make(map[interp.Lit]*Tree)
	var build func(l interp.Lit) (*Tree, error)
	build = func(l interp.Lit) (*Tree, error) {
		if t, ok := memo[l]; ok {
			return t, nil
		}
		goalStage := stages[l] // build only descends to staged literals
		t := &Tree{Goal: l, Rule: -1}
		memo[l] = t
	rules:
		for _, ri := range v.HeadRules(l) {
			r := int(ri)
			// The rule must fire strictly below the goal's stage: body
			// literals and one blocker per competitor all at < goalStage.
			for _, b := range v.Body(r) {
				if s, ok := stages[b]; !ok || s >= goalStage {
					continue rules
				}
			}
			blockers := make([]interp.Lit, 0, len(v.Competitors(r)))
			for _, c := range v.Competitors(r) {
				blocker, ok := earlyBlocker(v, int(c), stages, goalStage)
				if !ok {
					continue rules
				}
				blockers = append(blockers, blocker)
			}
			t.Rule = r
			for _, b := range v.Body(r) {
				sub, err := build(b)
				if err != nil {
					return nil, err
				}
				t.Body = append(t.Body, sub)
			}
			for i, c := range v.Competitors(r) {
				sub, err := build(blockers[i])
				if err != nil {
					return nil, err
				}
				t.Refutations = append(t.Refutations, Refutation{Competitor: int(c), Blocker: sub})
			}
			return t, nil
		}
		return nil, fmt.Errorf("proof: internal error: no stage-respecting rule for %s",
			v.G.Tab.LitString(l))
	}
	t, err := build(l)
	return t, err == nil, err
}

// stagesOf computes, for every literal of lfp(V) up to the goal's stage,
// the V iteration at which it first appears (1-based): it stops after the
// round the goal enters, or at the fixpoint when the goal never does.
func stagesOf(ctx context.Context, v *eval.View, goal interp.Lit) (map[interp.Lit]int, error) {
	stages := make(map[interp.Lit]int)
	cur := v.NewInterp()
	for round := 1; ; round++ {
		if err := interrupt.Check(ctx, "proof: stage computation"); err != nil {
			return nil, err
		}
		next, err := v.VOnce(cur)
		if err != nil {
			return nil, err
		}
		changed := false
		for _, l := range next.Lits() {
			if _, ok := stages[l]; !ok {
				stages[l] = round
				changed = true
			}
		}
		if _, done := stages[goal]; done || !changed {
			return stages, nil
		}
		next.UnionWith(cur)
		cur = next
	}
}

// earlyBlocker finds a body literal of competitor c whose complement
// enters the fixpoint strictly before the given stage.
func earlyBlocker(v *eval.View, c int, stages map[interp.Lit]int, before int) (interp.Lit, bool) {
	for _, b := range v.Body(c) {
		if s, ok := stages[b.Complement()]; ok && s < before {
			return b.Complement(), true
		}
	}
	return 0, false
}

// Render prints the tree, built over v, as indented text. Shared subtrees
// deeper than the first occurrence are elided with "(see above)".
func (t *Tree) Render(v *eval.View) string {
	var b strings.Builder
	seen := make(map[*Tree]bool)
	var rec func(t *Tree, prefix string, label string)
	rec = func(t *Tree, prefix, label string) {
		b.WriteString(prefix)
		b.WriteString(label)
		b.WriteString(v.G.Tab.LitString(t.Goal))
		if seen[t] && (len(t.Body) > 0 || len(t.Refutations) > 0) {
			b.WriteString("  (see above)\n")
			return
		}
		seen[t] = true
		if t.Rule >= 0 {
			b.WriteString("  by  ")
			b.WriteString(v.G.RuleString(v.GroundRule(t.Rule)))
		}
		b.WriteByte('\n')
		for _, sub := range t.Body {
			rec(sub, prefix+"  ", "needs ")
		}
		for _, ref := range t.Refutations {
			b.WriteString(prefix + "  blocks competitor ")
			b.WriteString(v.G.RuleString(v.GroundRule(ref.Competitor)))
			b.WriteByte('\n')
			rec(ref.Blocker, prefix+"    ", "via ")
		}
	}
	rec(t, "", "proved ")
	return b.String()
}
