package classical

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/interp"
)

// Stratification assigns each predicate to a stratum such that positive
// dependencies stay within or below a stratum and negative dependencies go
// strictly below. A program admitting one is stratified [ABW].
type Stratification struct {
	// Level maps predicate keys to strata, 0-based.
	Level map[ast.PredKey]int
	// NumLevels is 1 + the maximum level.
	NumLevels int
}

// Stratify computes a stratification of the (non-ground) seminegative
// rules, or an error naming a negative cycle.
func Stratify(rules []*ast.Rule) (*Stratification, error) {
	type edge struct {
		to  ast.PredKey
		neg bool
	}
	adj := make(map[ast.PredKey][]edge)
	nodes := make(map[ast.PredKey]bool)
	for _, r := range rules {
		h := r.Head.Atom.Key()
		nodes[h] = true
		for _, l := range r.Body {
			b := l.Atom.Key()
			nodes[b] = true
			adj[h] = append(adj[h], edge{to: b, neg: l.Neg})
		}
	}
	// Iterative lifting: level(h) >= level(b) for positive deps,
	// level(h) >= level(b)+1 for negative deps. A program is stratified
	// iff the lifting stabilises within |preds| rounds.
	level := make(map[ast.PredKey]int, len(nodes))
	n := len(nodes)
	for round := 0; ; round++ {
		changed := false
		for h, es := range adj {
			for _, e := range es {
				want := level[e.to]
				if e.neg {
					want++
				}
				if level[h] < want {
					level[h] = want
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if round > n {
			// Some level exceeded the predicate count: a negative cycle.
			for h, l := range level {
				if l > n {
					return nil, fmt.Errorf("classical: program is not stratified (negation cycle through %s)", h)
				}
			}
			return nil, fmt.Errorf("classical: program is not stratified")
		}
	}
	max := 0
	for _, l := range level {
		if l > max {
			max = l
		}
	}
	return &Stratification{Level: level, NumLevels: max + 1}, nil
}

// StratifiedModel evaluates the ground program stratum by stratum and
// returns the perfect (total) model as the set of true atoms; every other
// atom is false. strat must stratify the program's source rules.
func (p *Program) StratifiedModel(strat *Stratification) *interp.Bitset {
	true_ := interp.NewBitset(p.Tab.Len())
	// Group ground rules by the stratum of their head predicate.
	byLevel := make([][]int32, strat.NumLevels)
	for i := range p.Rules {
		lvl := strat.Level[p.Tab.Pred(p.Rules[i].Head)]
		byLevel[lvl] = append(byLevel[lvl], int32(i))
	}
	for _, ruleIdx := range byLevel {
		// Semi-naive within the stratum: counters on positive bodies; NAF
		// is frozen (lower strata are complete).
		unsat := make(map[int32]int32, len(ruleIdx))
		occ := make(map[interp.AtomID][]int32)
		var queue []interp.AtomID
		derive := func(a interp.AtomID) {
			if !true_.Get(int(a)) {
				true_.Set(int(a))
				queue = append(queue, a)
			}
		}
		for _, ri := range ruleIdx {
			r := &p.Rules[ri]
			blockedNAF := false
			for _, a := range r.Neg {
				if true_.Get(int(a)) {
					blockedNAF = true
					break
				}
			}
			if blockedNAF {
				unsat[ri] = -1
				continue
			}
			cnt := int32(0)
			for _, a := range r.Pos {
				if !true_.Get(int(a)) {
					cnt++
					occ[a] = append(occ[a], ri)
				}
			}
			unsat[ri] = cnt
			if cnt == 0 {
				derive(r.Head)
			}
		}
		for len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			for _, ri := range occ[a] {
				if unsat[ri] < 0 {
					continue
				}
				unsat[ri]--
				if unsat[ri] == 0 {
					derive(p.Rules[ri].Head)
				}
			}
		}
	}
	return true_
}
