// Win–move: game solving through the OV translation. A position wins when
// it has a move to a losing one — the canonical program whose negation is
// non-stratified. On a chain the least model settles every position; on a
// cycle the least model leaves them undefined and the stable models pick
// the two consistent orientations, matching the classical stable-model
// analysis.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	ordlog "repro"
	"repro/internal/workload"
)

func solve(name string, edges [][2]int, n int) {
	rules := workload.WinMove(edges)
	ov, err := ordlog.OV("game", rules)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	eng, err := ordlog.NewEngineCtx(ctx, ov, ordlog.Config{})
	if err != nil {
		log.Fatal(err)
	}
	m, err := eng.LeastModelCtx(ctx, "game")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s:\n  position verdicts (least model): ", name)
	for i := 0; i < n; i++ {
		lit, err := ordlog.ParseLiteral(fmt.Sprintf("win(c%d)", i))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("c%d=%s ", i, m.Value(lit.Atom))
	}
	fmt.Println()

	ms, err := eng.StableModelsCtx(ctx, "game", ordlog.EnumOptions{})
	if err != nil {
		log.Fatal(err)
	}
	var lines []string
	for _, sm := range ms {
		line := "   "
		for i := 0; i < n; i++ {
			lit, err := ordlog.ParseLiteral(fmt.Sprintf("win(c%d)", i))
			if err != nil {
				log.Fatal(err)
			}
			line += fmt.Sprintf(" c%d=%s", i, sm.Value(lit.Atom))
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	fmt.Printf("  %d stable model(s):\n", len(ms))
	for _, l := range lines {
		fmt.Println(l)
	}
}

func main() {
	solve("chain c0 -> c1 -> c2 -> c3", workload.ChainEdges(4), 4)
	solve("even cycle of 4", workload.CycleEdges(4), 4)
	solve("odd cycle of 3", workload.CycleEdges(3), 3)
}
