package classical

import (
	"repro/internal/interp"
)

// omega computes the least fixpoint of the positive consequence operator
// with every negated atom evaluated against the fixed set J: "not a" holds
// iff a ∉ J. This is Van Gelder's anti-monotone operator A(J); iterating
// A² yields the well-founded semantics.
func (p *Program) omega(j *interp.Bitset) *interp.Bitset {
	out := interp.NewBitset(p.Tab.Len())
	unsat := make([]int32, len(p.Rules))
	occ := make(map[interp.AtomID][]int32)
	var queue []interp.AtomID
	derive := func(a interp.AtomID) {
		if !out.Get(int(a)) {
			out.Set(int(a))
			queue = append(queue, a)
		}
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		blocked := false
		for _, a := range r.Neg {
			if j.Get(int(a)) {
				blocked = true
				break
			}
		}
		if blocked {
			unsat[i] = -1
			continue
		}
		unsat[i] = int32(len(r.Pos))
		for _, a := range r.Pos {
			occ[a] = append(occ[a], int32(i))
		}
		if len(r.Pos) == 0 {
			derive(r.Head)
		}
	}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for _, ri := range occ[a] {
			if unsat[ri] <= 0 {
				continue
			}
			unsat[ri]--
			if unsat[ri] == 0 {
				derive(p.Rules[ri].Head)
			}
		}
	}
	return out
}

// WellFounded computes the well-founded model [VRS] by the alternating
// fixpoint: the returned interpretation holds the well-founded true atoms
// positively, the well-founded false atoms negatively, and leaves the rest
// undefined.
func (p *Program) WellFounded() *interp.Interp {
	n := p.Tab.Len()
	truth := interp.NewBitset(n) // grows: surely true
	poss := p.omega(truth)       // shrinks: possibly true
	for {
		nextTrue := p.omega(poss)
		nextPoss := p.omega(nextTrue)
		if nextTrue.Equal(truth) && nextPoss.Equal(poss) {
			break
		}
		truth, poss = nextTrue, nextPoss
	}
	out := interp.New(p.Tab)
	for i := 0; i < n; i++ {
		switch {
		case truth.Get(i):
			out.AddLit(interp.MkLit(interp.AtomID(i), false))
		case !poss.Get(i):
			out.AddLit(interp.MkLit(interp.AtomID(i), true))
		}
	}
	return out
}
