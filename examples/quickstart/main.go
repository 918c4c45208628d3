// Quickstart: the paper's Figure 1. A general module knows that birds fly
// and are not ground animals; a more specific module knows the penguin is a
// ground animal and that ground animals do not fly. The specific module
// overrules the general one, so in it the penguin does not fly while the
// pigeon still does.
package main

import (
	"context"
	"fmt"
	"log"

	ordlog "repro"
)

const program = `
module birds {
  bird(penguin).
  bird(pigeon).
  fly(X) :- bird(X).
  -ground_animal(X) :- bird(X).
}

module arctic extends birds {
  ground_animal(penguin).
  -fly(X) :- ground_animal(X).
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

	for _, comp := range []string{"birds", "arctic"} {
		m, err := eng.LeastModelCtx(ctx, comp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("least model in %s:\n  %s\n", comp, m)
	}

	m, err := eng.LeastModelCtx(ctx, "arctic")
	if err != nil {
		log.Fatal(err)
	}

	// Ask who flies, and who is known not to fly.
	fliers, err := ordlog.Parse(`?- fly(X).`)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range m.Query(fliers.Queries[0]) {
		fmt.Printf("flies: %s\n", b["X"])
	}
	grounded, err := ordlog.Parse(`?- -fly(X).`)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range m.Query(grounded.Queries[0]) {
		fmt.Printf("does not fly: %s\n", b["X"])
	}

	// Explain the penguin: which rules are applied, blocked, overruled.
	penguin, err := ordlog.ParseLiteral("fly(penguin)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwhy doesn't the penguin fly?")
	for _, line := range m.Explain(penguin.Atom) {
		fmt.Println("  " + line)
	}
}
