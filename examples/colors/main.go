// Colors: the second program of the paper's Example 9. The negative
// program
//
//	colored(X) :- color(X), -colored(Y), X != Y.
//	-colored(X) :- ugly_color(X).
//
// is glossed in the paper as "select exactly one of the available
// non-ugly colors". Reproduction note: under the 3-level semantics of §4
// the literal program does NOT behave that way once an ugly color exists —
// the exception forces -colored(brown), and brown then serves as the
// witness Y for *every* other color, so the unique stable model colors
// both red and green. This example shows the literal program's actual
// stable models, and then a standard choice encoding that realises the
// stated intent (exactly one stable model per admissible color).
package main

import (
	"context"
	"fmt"
	"log"

	ordlog "repro"
)

const literal = `
colored(X) :- color(X), -colored(Y), X != Y.
-colored(X) :- ugly_color(X).
color(red).
color(green).
color(brown).
ugly_color(brown).
`

const choice = `
colored(X) :- color(X), -other_colored(X).
other_colored(X) :- color(X), colored(Y), X != Y.
-colored(X) :- ugly_color(X).
color(red).
color(green).
color(brown).
ugly_color(brown).
`

func stableOf(src string) []*ordlog.Model {
	parsed, err := ordlog.ParseProgram(src)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := ordlog.ThreeV(parsed.Components[0].Rules)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	eng, err := ordlog.NewEngineCtx(ctx, prog, ordlog.Config{})
	if err != nil {
		log.Fatal(err)
	}
	// Definition 10 evaluates negative programs in the exceptions
	// component of 3V(C).
	ms, err := eng.StableModelsCtx(ctx, "exceptions", ordlog.EnumOptions{})
	if err != nil {
		log.Fatal(err)
	}
	return ms
}

func report(title string, ms []*ordlog.Model) {
	fmt.Printf("%s: %d stable model(s)\n", title, len(ms))
	q, err := ordlog.Parse(`?- colored(X).`)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range ms {
		var picked []string
		for _, b := range m.Query(q.Queries[0]) {
			picked = append(picked, b["X"].String())
		}
		fmt.Printf("  colored: %v\n", picked)
	}
}

func main() {
	report("paper's literal program (Example 9)", stableOf(literal))
	fmt.Println()
	report("choice encoding of the stated intent", stableOf(choice))
}
