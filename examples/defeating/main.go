// Defeating: the paper's Figure 2. Components C2 and C3 hold contradictory
// information about mimmo (poor vs rich) and neither is more specific than
// the other from C1's point of view, so both are defeated: the least model
// in C1 cannot establish whether mimmo receives a free ticket — the
// paper's example of a necessarily *partial* model.
package main

import (
	"context"
	"fmt"
	"log"

	ordlog "repro"
)

const program = `
module c3 {
  rich(mimmo).
  -poor(X) :- rich(X).
}
module c2 {
  poor(mimmo).
  -rich(X) :- poor(X).
}
module c1 extends c2, c3 {
  free_ticket(X) :- poor(X).
}
`

func main() {
	prog, err := ordlog.ParseProgram(program)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	eng, err := ordlog.NewEngineCtx(ctx, prog, ordlog.Config{})
	if err != nil {
		log.Fatal(err)
	}
	m, err := eng.LeastModelCtx(ctx, "c1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("least model in c1: %s\n", m)

	for _, s := range []string{"poor(mimmo)", "rich(mimmo)", "free_ticket(mimmo)"} {
		lit, err := ordlog.ParseLiteral(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s value: %s\n", s, m.Value(lit.Atom))
	}

	fmt.Println("\nwhy is poor(mimmo) undefined?")
	lit, err := ordlog.ParseLiteral("poor(mimmo)")
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range m.Explain(lit.Atom) {
		fmt.Println("  " + line)
	}

	// No total model exists in c1 (the paper notes this after Definition
	// 5); the stable models stay partial.
	ms, err := eng.StableModelsCtx(ctx, "c1", ordlog.EnumOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstable models in c1:")
	for _, sm := range ms {
		total := "partial"
		if sm.Total() {
			total = "total"
		}
		fmt.Printf("  %s (%s)\n", sm, total)
	}
}
