// Loan advice: the paper's Figure 3 and the four scenarios of its
// introduction. The module "myself" consults three experts: expert2 is
// independent; expert3 refines expert4 (expert3 < expert4). Depending on
// the economic facts asserted at the myself level, take_loan is inferred,
// defeated (contradictory independent experts) or recovered by the more
// specific expert overruling the general one.
package main

import (
	"context"
	"fmt"
	"log"

	ordlog "repro"
)

const experts = `
module expert2 {
  take_loan :- inflation(X), X > 11.
}
module expert4 {
  -take_loan :- loan_rate(X), X > 14.
}
module expert3 extends expert4 {
  take_loan :- inflation(X), loan_rate(Y), X > Y + 2.
}
module myself extends expert2, expert3 {
%FACTS%
}
`

func run(name, facts string) {
	src := experts
	prog, err := ordlog.ParseProgram(replaceFacts(src, facts))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	eng, err := ordlog.NewEngineCtx(ctx, prog, ordlog.Config{})
	if err != nil {
		log.Fatal(err)
	}
	m, err := eng.LeastModelCtx(ctx, "myself")
	if err != nil {
		log.Fatal(err)
	}
	lit, err := ordlog.ParseLiteral("take_loan")
	if err != nil {
		log.Fatal(err)
	}
	verdict := "undefined (defeated or underivable)"
	switch {
	case m.Holds(lit):
		verdict = "yes, take the loan"
	case m.Holds(lit.Complement()):
		verdict = "no, do not take the loan"
	}
	fmt.Printf("%-40s -> %s\n", name, verdict)
	fmt.Printf("%-40s    model: %s\n", "", m)
}

func replaceFacts(src, facts string) string {
	out := ""
	for i := 0; i+7 <= len(src); i++ {
		if src[i:i+7] == "%FACTS%" {
			out = src[:i] + facts + src[i+7:]
			break
		}
	}
	if out == "" {
		log.Fatal("template marker not found")
	}
	return out
}

func main() {
	// The paper's four scenarios, in order of presentation.
	run("no facts at myself level", "")
	run("inflation(12)", "inflation(12).")
	run("inflation(12), loan_rate(16)", "inflation(12). loan_rate(16).")
	run("inflation(19), loan_rate(16)", "inflation(19). loan_rate(16).")
}
