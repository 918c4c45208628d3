// Datalog under ordered semantics: the paper's Example 6. A classical
// ancestor program becomes an ordered program via the OV translation — an
// explicit closed-world component above it — and its least model in the
// program component agrees exactly with classical stratified Datalog and
// the well-founded semantics, negative literals included.
package main

import (
	"context"
	"fmt"
	"log"

	ordlog "repro"
	"repro/internal/classical"
	"repro/internal/interp"
	"repro/internal/workload"
)

func main() {
	rules := workload.AncestorChain(5) // c0 -> c1 -> c2 -> c3 -> c4

	// Ordered route: OV(C), least model in the program component.
	ov, err := ordlog.OV("anc", rules)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	eng, err := ordlog.NewEngineCtx(ctx, ov, ordlog.Config{})
	if err != nil {
		log.Fatal(err)
	}
	m, err := eng.LeastModelCtx(ctx, "anc")
	if err != nil {
		log.Fatal(err)
	}

	q, err := ordlog.Parse(`?- anc(c0, X).`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ancestors reachable from c0 (ordered OV least model):")
	for _, b := range m.Query(q.Queries[0]) {
		fmt.Printf("  anc(c0, %s)\n", b["X"])
	}

	// The CWA component makes negative conclusions first-class: -anc is
	// derived, not merely absent.
	nq, err := ordlog.Parse(`?- -anc(c4, X).`)
	if err != nil {
		log.Fatal(err)
	}
	neg := m.Query(nq.Queries[0])
	fmt.Printf("c4 is provably an ancestor of nobody: %d derived negations\n", len(neg))

	// Classical baselines agree.
	cp, err := classical.GroundRules(rules, classical.Options{})
	if err != nil {
		log.Fatal(err)
	}
	strat, err := classical.Stratify(rules)
	if err != nil {
		log.Fatal(err)
	}
	perfect := cp.StratifiedModel(strat)
	wf := cp.WellFounded()

	agree := true
	for i := 0; i < cp.Tab.Len(); i++ {
		id := interp.AtomID(i)
		atom := cp.Tab.Atom(id)
		ordered := m.Value(atom) == ordlog.True
		if ordered != perfect.Get(i) || ordered != (wf.Value(id) == ordlog.True) {
			agree = false
			fmt.Printf("  MISMATCH on %s\n", atom)
		}
	}
	fmt.Printf("ordered OV == stratified Datalog == well-founded: %v\n", agree)
	fmt.Printf("(%d atoms, %d ground instances)\n", eng.NumAtoms(), eng.NumGroundRules())
}
