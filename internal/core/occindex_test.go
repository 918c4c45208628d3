package core

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/interp"
)

// occMismatch checks the occurrence index as one snapshot reads it against
// a scan of the snapshot's instances minus its dead set: each and
// eachBody (once per occurrence) for every atom of the table, including
// atoms interned after the snapshot, seed for each goal literal, and the
// live instances per component.
func occMismatch(s *Snapshot, goals []ast.Literal) error {
	x := s.occ()
	tab := s.gp.Tab
	nTab := tab.Len()
	heads := make([][]int32, nTab)
	bodies := make([][]int32, nTab)
	live := make([]int32, s.gp.NumComponents())
	for i := range s.rules {
		if _, gone := s.dead[int32(i)]; gone {
			continue
		}
		r := &s.rules[i]
		live[r.Comp]++
		heads[r.Head.Atom()] = append(heads[r.Head.Atom()], int32(i))
		for _, l := range r.Body {
			bodies[l.Atom()] = append(bodies[l.Atom()], int32(i))
		}
	}
	collect := func(walk func(*Snapshot, interp.AtomID, func(int32)), a interp.AtomID) []int32 {
		var got []int32
		walk(s, a, func(i int32) { got = append(got, i) })
		slices.Sort(got)
		return got
	}
	for a := interp.AtomID(0); int(a) < nTab; a++ {
		if got := collect(x.each, a); !slices.Equal(got, heads[a]) {
			return fmt.Errorf("v%d each(%s) = %v, scan %v", s.version, tab.Atom(a), got, heads[a])
		}
		if got := collect(x.eachBody, a); !slices.Equal(got, bodies[a]) {
			return fmt.Errorf("v%d eachBody(%s) = %v, scan %v", s.version, tab.Atom(a), got, bodies[a])
		}
	}
	if got := s.liveComps(); !slices.Equal(got, live) {
		return fmt.Errorf("v%d live instances per component %v, scan %v", s.version, got, live)
	}
	for _, l := range goals {
		var got, want []interp.AtomID
		x.seed(s, l, func(a interp.AtomID) { got = append(got, a) })
		slices.Sort(got)
		if l.Atom.Ground() {
			if id, ok := tab.Lookup(l.Atom); ok {
				want = append(want, id)
			}
		} else {
			for a := range heads {
				if len(heads[a]) > 0 && atomMatches(l.Atom, tab.Atom(interp.AtomID(a))) {
					want = append(want, interp.AtomID(a))
				}
			}
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("v%d seed(%s) = %v, scan %v", s.version, l, got, want)
		}
	}
	return nil
}
