package proof

import (
	"context"
	"fmt"
	"strings"

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

// ExplainCtx proves the literal and returns its derivation tree, or ok=false
// when the literal is not in the least model. The witness is
// stage-respecting: every subtree's goal enters the fixpoint at a strictly
// earlier V stage than its parent, so the justification is well-founded
// (never circular) regardless of rule ordering. Shared subproofs make the
// tree a DAG; rendering elides repeats. Both the proof search and the
// stage computation poll the context.
func (p *Prover) ExplainCtx(ctx context.Context, l interp.Lit) (*Tree, bool, error) {
	ok, err := p.ProveCtx(ctx, l)
	if err != nil || !ok {
		return nil, false, err
	}
	stages, err := p.stages()
	if err != nil {
		return nil, false, err
	}
	memo := make(map[interp.Lit]*Tree)
	var build func(l interp.Lit) (*Tree, error)
	build = func(l interp.Lit) (*Tree, error) {
		if t, ok := memo[l]; ok {
			return t, nil
		}
		goalStage, ok := stages[l]
		if !ok {
			return nil, fmt.Errorf("proof: internal error: proven literal %s outside lfp(V)",
				p.v.G.Tab.LitString(l))
		}
		t := &Tree{Goal: l, Rule: -1}
		memo[l] = t
	rules:
		for _, ri := range p.v.HeadRules(l) {
			r := int(ri)
			// The rule must fire strictly below the goal's stage: body
			// literals and one blocker per competitor all at < goalStage.
			for _, b := range p.v.Body(r) {
				if s, ok := stages[b]; !ok || s >= goalStage {
					continue rules
				}
			}
			blockers := make([]interp.Lit, 0, len(p.v.Competitors(r)))
			for _, c := range p.v.Competitors(r) {
				blocker, ok := p.earlyBlocker(int(c), stages, goalStage)
				if !ok {
					continue rules
				}
				blockers = append(blockers, blocker)
			}
			t.Rule = r
			for _, b := range p.v.Body(r) {
				sub, err := build(b)
				if err != nil {
					return nil, err
				}
				t.Body = append(t.Body, sub)
			}
			for i, c := range p.v.Competitors(r) {
				sub, err := build(blockers[i])
				if err != nil {
					return nil, err
				}
				t.Refutations = append(t.Refutations, Refutation{Competitor: int(c), Blocker: sub})
			}
			return t, nil
		}
		return nil, fmt.Errorf("proof: internal error: no stage-respecting rule for %s",
			p.v.G.Tab.LitString(l))
	}
	t, err := build(l)
	return t, err == nil, err
}

// stages computes, for every literal of lfp(V), the V iteration at which
// it first appears (1-based). Memoised per prover.
func (p *Prover) stages() (map[interp.Lit]int, error) {
	if p.stageMap != nil {
		return p.stageMap, nil
	}
	stages := make(map[interp.Lit]int)
	cur := p.v.NewInterp()
	for round := 1; ; round++ {
		if err := interrupt.Check(p.ctx, "proof: stage computation"); err != nil {
			return nil, err
		}
		next, err := p.v.VOnce(cur)
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
		if !changed {
			break
		}
		next.UnionWith(cur)
		cur = next
	}
	p.stageMap = stages
	return stages, nil
}

// earlyBlocker finds a body literal of competitor c whose complement
// enters the fixpoint strictly before the given stage.
func (p *Prover) earlyBlocker(c int, stages map[interp.Lit]int, before int) (interp.Lit, bool) {
	for _, b := range p.v.Body(c) {
		if s, ok := stages[b.Complement()]; ok && s < before {
			return b.Complement(), true
		}
	}
	return 0, false
}

// Render prints the tree as indented text. Shared subtrees deeper than
// the first occurrence are elided with "(see above)".
func (t *Tree) Render(p *Prover) string {
	var b strings.Builder
	seen := make(map[*Tree]bool)
	var rec func(t *Tree, prefix string, label string)
	rec = func(t *Tree, prefix, label string) {
		b.WriteString(prefix)
		b.WriteString(label)
		b.WriteString(p.v.G.Tab.LitString(t.Goal))
		if seen[t] && (len(t.Body) > 0 || len(t.Refutations) > 0) {
			b.WriteString("  (see above)\n")
			return
		}
		seen[t] = true
		if t.Rule >= 0 {
			b.WriteString("  by  ")
			b.WriteString(p.v.G.RuleString(p.v.GroundRule(t.Rule)))
		}
		b.WriteByte('\n')
		for _, sub := range t.Body {
			rec(sub, prefix+"  ", "needs ")
		}
		for _, ref := range t.Refutations {
			b.WriteString(prefix + "  blocks competitor ")
			b.WriteString(p.v.G.RuleString(p.v.GroundRule(ref.Competitor)))
			b.WriteByte('\n')
			rec(ref.Blocker, prefix+"    ", "via ")
		}
	}
	rec(t, "", "proved ")
	return b.String()
}
