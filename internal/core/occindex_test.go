package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

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

// The occurrence index equals a scan at every version of a seeded run of
// writes — asserts over fresh constants (appended instances), retracts
// (the dead set), re-asserts (resurrected instances) and one compaction (a
// fresh program and index) — while four readers cut random pinned
// versions, each against the closure oracle. Every pinned version is
// checked again after the run, when newer versions have extended its
// program's index past its prefix.
func TestOccIndexMatchesScan(t *testing.T) {
	ctx := context.Background()
	e, err := NewEngineCtx(ctx, mustProgram(t, readsSource(12, 6)), Config{GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	var goals []ast.Literal
	for _, g := range []string{"path(c2, X)", "path(X, c5)", "-path(X, Y)", "edge(X, Y)", "reach(h1, X)", "path(n3, X)", "path(c2, c7)", "nosuch(X)"} {
		goals = append(goals, parseGoal(t, g).Body...)
	}

	var mu sync.Mutex
	pinned := []*Snapshot{e.Current()}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	stop := func() { once.Do(func() { close(done); wg.Wait() }) }
	defer stop()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for cuts := 0; ; cuts++ {
				select {
				case <-done:
					if cuts >= 20 {
						return
					}
				default:
				}
				mu.Lock()
				s := pinned[rng.Intn(len(pinned))]
				mu.Unlock()
				j := rng.Intn(len(goals))
				goal := goals[j : j+1]
				cut, err := s.cutSlice(ctx, goal)
				if err != nil {
					t.Error(err)
					return
				}
				if diff, ok := sameSet(renderRules(cut, cut.Rules, nil), closureOracle(s, goal)); !ok {
					t.Errorf("reader %d, v%d goal %v: cut differs from the closure oracle:\n%s", r, s.version, goal, diff)
					return
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(7))
	live := make([]string, 0, 64)
	for i := 0; i < 12; i++ {
		live = append(live, fmt.Sprintf("edge(c%d, c%d)", i, i+1))
	}
	var retracted []string
	ops := map[string]int{}
	const steps = 60
	for step := 0; step < steps; step++ {
		var (
			s   *Snapshot
			err error
		)
		fact := func(f string) []ast.Literal { return parseGoal(t, f).Body }
		switch k := rng.Intn(3); {
		case step == steps/2:
			ops["compact"]++
			s, err = e.Compact(ctx)
		case k == 0 || len(live) < 4:
			f := fmt.Sprintf("edge(c%d, n%d)", rng.Intn(12), step)
			live = append(live, f)
			ops["append"]++
			s, err = e.Update(ctx, "base", fact(f))
		case k == 1 && len(retracted) > 0:
			j := rng.Intn(len(retracted))
			f := retracted[j]
			retracted = slices.Delete(retracted, j, j+1)
			live = append(live, f)
			ops["resurrect"]++
			s, err = e.Update(ctx, "base", fact(f))
		default:
			j := rng.Intn(len(live))
			f := live[j]
			live = slices.Delete(live, j, j+1)
			retracted = append(retracted, f)
			ops["retract"]++
			s, err = e.Retract(ctx, "base", fact(f))
		}
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		pinned = append(pinned, s)
		old := pinned[rng.Intn(len(pinned))]
		mu.Unlock()
		if err := occMismatch(s, goals); err != nil {
			t.Fatal(err)
		}
		if err := occMismatch(old, goals); err != nil {
			t.Fatal(err)
		}
	}
	stop()

	programs := map[*occIndex]bool{}
	for _, s := range pinned {
		programs[s.index] = true
		if err := occMismatch(s, goals); err != nil {
			t.Error(err)
		}
	}
	if len(programs) < 2 {
		t.Errorf("the run indexed %d ground programs; the compaction should have started a second", len(programs))
	}
	for _, op := range []string{"append", "resurrect", "retract", "compact"} {
		if ops[op] == 0 {
			t.Errorf("the run made no %s write: %v", op, ops)
		}
	}
}
