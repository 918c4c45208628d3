package core

import (
	"slices"

	"repro/internal/ast"
)

// history is an update history: the append-only log of fact events over
// a source program, and the index of the ground facts in effect at the
// log's end per component (built when an event first touches it), keyed
// by the fact's text: every rendering reads back as what it renders, so
// two facts share a key exactly when they are equal. keys holds, per
// indexed component, the keys of its source fact rules in source order,
// rendered once when the index is built. Every fold of the
// history goes through it: the write path's no-op filter (apply), the
// WAL's divergence check (replayWAL), compaction (collapsed) and the
// program behind every reground, AsOf and checkpoint (program). The engine's history is its tip's, touched only under the
// write lock; a past version's is a fresh fold of its prefix (replay).
type history struct {
	src   *ast.OrderedProgram
	log   []factEvent
	facts []map[string]fact
	keys  [][]string
}

// factEvent is one entry of the update history. ver is the version the
// event's batch published, so AsOf can cut the history at any past version
// by prefix.
type factEvent struct {
	comp    int
	lit     ast.Literal
	retract bool
	ver     uint64
}

// fact is a ground fact's entry in the index. at is where it renders:
// inSource for the source's own fact rules in place, the log position of
// the assert that made it live, or gone. last is the log position of the
// last event on it (-1: none), the event a collapse keeps.
type fact struct{ at, last int32 }

const (
	inSource int32 = -1
	gone     int32 = -2
)

// replay folds log over src. An event that changes nothing at its
// position (a collapsed log keeps some) is still its fact's last event.
func replay(src *ast.OrderedProgram, log []factEvent) *history {
	h := &history{src: src, log: log, facts: make([]map[string]fact, len(src.Components)), keys: make([][]string, len(src.Components))}
	for i, ev := range log {
		h.fold(ev, ev.lit.String(), int32(i))
	}
	return h
}

// index returns component ci's index, building it on first use.
func (h *history) index(ci int) map[string]fact {
	idx := h.facts[ci]
	if idx == nil {
		idx = make(map[string]fact)
		var keys []string
		for _, r := range h.src.Components[ci].Rules {
			if r.IsGroundFact() {
				k := r.Head.String()
				idx[k] = fact{at: inSource, last: -1}
				keys = append(keys, k)
			}
		}
		h.facts[ci], h.keys[ci] = idx, keys
	}
	return idx
}

// live reports whether the fact with the key is in effect in component ci.
func (h *history) live(ci int, key string) bool {
	f, ok := h.index(ci)[key]
	return ok && f.at != gone
}

// fold records event i on its fact: an assert of a fact not in effect
// makes it live at i, a retract of one in effect removes it, source copies
// and all. It reports whether the event changed the state.
func (h *history) fold(ev factEvent, key string, i int32) bool {
	idx := h.index(ev.comp)
	f, ok := idx[key]
	if !ok {
		f = fact{at: gone, last: -1}
	}
	changed := (f.at != gone) == ev.retract
	if changed && ev.retract {
		f.at = gone
	} else if changed {
		f.at = i
	}
	f.last = i
	idx[key] = f
	return changed
}

// apply logs the event if it changes the state — asserts a fact not in
// effect, or retracts one that is — and reports whether it did.
func (h *history) apply(ev factEvent, key string) bool {
	if h.live(ev.comp, key) == ev.retract {
		h.fold(ev, key, int32(len(h.log)))
		h.log = append(h.log, ev)
		return true
	}
	return false
}

// truncate drops the events past n, the rollback of a write that failed
// before its version was published, and refolds the index.
func (h *history) truncate(n int) {
	if len(h.log) > n {
		*h = *replay(h.src, h.log[:n])
	}
}

// collapsed returns the history with its log reduced to the last event per
// fact, in order, in a fresh slice: per fact only the last event decides
// presence, and rule order does not affect the semantics.
func (h *history) collapsed() *history {
	keep := make([]bool, len(h.log))
	n := 0
	for _, idx := range h.facts {
		for _, f := range idx {
			if f.last >= 0 {
				keep[f.last] = true
				n++
			}
		}
	}
	log := make([]factEvent, 0, n)
	for i, ev := range h.log {
		if keep[i] {
			log = append(log, ev)
		}
	}
	return replay(h.src, log)
}

// program renders the effective program — the one a caller maintaining
// the source by hand would have built, so grounding it yields exactly the
// version's semantics: each touched component's retracted fact rules
// dropped and its asserted facts appended in the order of the asserts that
// made them live. An empty history's program is the source itself.
func (h *history) program() (*ast.OrderedProgram, error) {
	if len(h.log) == 0 {
		return h.src, nil
	}
	p := ast.NewOrderedProgram()
	for ci, c := range h.src.Components {
		if err := p.AddComponent(&ast.Component{Name: c.Name, Rules: h.rules(ci)}); err != nil {
			return nil, err
		}
	}
	for _, ed := range h.src.Edges {
		if err := p.AddEdge(ed.Child, ed.Parent); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// rules returns component ci's rules in the effective program.
func (h *history) rules(ci int) []*ast.Rule {
	src, idx := h.src.Components[ci].Rules, h.facts[ci]
	if idx == nil {
		return slices.Clone(src)
	}
	out := make([]*ast.Rule, 0, len(src))
	keys := h.keys[ci]
	for _, r := range src {
		if r.IsGroundFact() {
			k := keys[0]
			keys = keys[1:]
			if idx[k].at != inSource {
				continue
			}
		}
		out = append(out, r)
	}
	var asserted []int32
	for _, f := range idx {
		if f.at >= 0 {
			asserted = append(asserted, f.at)
		}
	}
	slices.Sort(asserted)
	for _, i := range asserted {
		out = append(out, ast.Fact(h.log[i].lit))
	}
	return out
}
