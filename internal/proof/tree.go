// Package proof builds derivation trees witnessing least-model membership
// for ordered logic programs: why a ground literal is in lfp(V) of a
// component, as the rule instance that derives it, the trees of its body
// literals, and one refuted body literal per competitor. The tree is read
// off the V stages the component's semi-naive fixpoint records
// (eval.View.StagesCtx), so every subtree's goal enters the fixpoint
// strictly before its parent's. Membership itself is decided by the least
// model; the [LV] top-down proof procedure lives in this package's tests
// as an oracle checked against it.
package proof

import (
	"fmt"
	"strings"

	"repro/internal/eval"
	"repro/internal/interp"
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

// Explain returns the derivation tree of the literal in the view's
// component, or ok=false when the literal is not in the least model.
// stages are the view's V stages (eval.View.StagesCtx): stages[l] is the
// round at which l enters lfp(V), 0 outside it. The witness is
// stage-respecting: every subtree's goal enters the fixpoint at a strictly
// earlier stage than its parent, so the justification is well-founded
// (never circular) regardless of rule ordering. Shared subproofs make the
// tree a DAG; rendering elides repeats. It costs O(tree): build and
// earlyBlocker read only the stages of the literals they visit.
func Explain(v *eval.View, stages []int32, l interp.Lit) (*Tree, bool, error) {
	if int(l) >= len(stages) || stages[l] == 0 {
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
				if s := stages[b]; s == 0 || s >= goalStage {
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

// earlyBlocker finds a body literal of competitor c whose complement
// enters the fixpoint strictly before the given stage.
func earlyBlocker(v *eval.View, c int, stages []int32, before int32) (interp.Lit, bool) {
	for _, b := range v.Body(c) {
		if s := stages[b.Complement()]; s != 0 && s < before {
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
