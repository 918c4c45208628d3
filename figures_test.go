package ordlog_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	ordlog "repro"
	"repro/internal/transform"
)

// The paper's figures and worked examples, each as a computed model or
// model set rendered to one string and compared with what the paper
// states. E9 is the one row that pins a deviation from the paper's text:
// see EXPERIMENTS.md §3, Finding 3.

const figC1Src = `
module c2 { bird(penguin). bird(pigeon). fly(X) :- bird(X). -ground_animal(X) :- bird(X). }
module c1 extends c2 { ground_animal(penguin). -fly(X) :- ground_animal(X). }
`

// figLoanSrc is Fig. 3 with the facts of one scenario spliced into myself.
const figLoanSrc = `
module expert2 { take_loan :- inflation(X), X > 11. }
module expert4 { -take_loan :- loan_rate(X), X > 14. }
module expert3 extends expert4 { take_loan :- inflation(X), loan_rate(Y), X > Y + 2. }
module myself extends expert2, expert3 { %s }
`

const colorsLiteralSrc = `
colored(X) :- color(X), -colored(Y), X != Y.
-colored(X) :- ugly_color(X).
color(red). color(green). color(brown). ugly_color(brown).
`

const colorsChoiceSrc = `
colored(X) :- color(X), -other_colored(X).
other_colored(X) :- color(X), colored(Y), X != Y.
-colored(X) :- ugly_color(X).
color(red). color(green). color(brown). ugly_color(brown).
`

func figureEngine(t *testing.T, src string) *ordlog.Engine {
	t.Helper()
	prog, err := ordlog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ordlog.NewEngineCtx(context.Background(), prog, ordlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func figureLeast(t *testing.T, src, comp string) string {
	t.Helper()
	m, err := figureEngine(t, src).LeastModelCtx(context.Background(), comp)
	if err != nil {
		t.Fatal(err)
	}
	return m.String()
}

// figureStable renders the stable models of comp, sorted, space-separated.
func figureStable(t *testing.T, src, comp string) string {
	t.Helper()
	ms, err := figureEngine(t, src).StableModelsCtx(context.Background(), comp, ordlog.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// figureColored evaluates a negative colors program under 3V stable
// semantics and renders the colored/1 answers of each stable model.
func figureColored(t *testing.T, src string) string {
	t.Helper()
	parsed, err := ordlog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := ordlog.ThreeV(parsed.Components[0].Rules)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ordlog.NewEngineCtx(context.Background(), tv, ordlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := eng.StableModelsCtx(context.Background(), transform.ExceptionsName, ordlog.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ordlog.Parse(`?- colored(X).`)
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, m := range ms {
		var picked []string
		for _, b := range m.Query(q.Queries[0]) {
			picked = append(picked, b["X"].String())
		}
		sort.Strings(picked)
		parts = append(parts, fmt.Sprintf("%v", picked))
	}
	sort.Strings(parts)
	return "colored: " + strings.Join(parts, " | ")
}

func TestPaperFigures(t *testing.T) {
	for _, c := range []struct {
		id, what, want string
		got            func(t *testing.T) string
	}{
		{"F1", "Fig. 1 least model in C1 (penguin does not fly)",
			"{bird(penguin), bird(pigeon), -fly(penguin), fly(pigeon), ground_animal(penguin), -ground_animal(pigeon)}",
			func(t *testing.T) string { return figureLeast(t, figC1Src, "c1") }},
		{"F2", "Fig. 2 least model in C1 (mimmo defeated, partial)",
			"{}",
			func(t *testing.T) string { return figureLeast(t, fig2Src, "c1") }},
		{"F3a", "Fig. 3 loan, no facts (no inference)",
			"{}",
			func(t *testing.T) string { return figureLeast(t, fmt.Sprintf(figLoanSrc, ""), "myself") }},
		{"F3b", "Fig. 3 loan, inflation(12) (expert2 fires)",
			"{inflation(12), take_loan}",
			func(t *testing.T) string { return figureLeast(t, fmt.Sprintf(figLoanSrc, "inflation(12)."), "myself") }},
		{"F3c", "Fig. 3 loan, inflation(12), loan_rate(16) (defeated)",
			"{inflation(12), loan_rate(16)}",
			func(t *testing.T) string {
				return figureLeast(t, fmt.Sprintf(figLoanSrc, "inflation(12). loan_rate(16)."), "myself")
			}},
		{"F3d", "Fig. 3 loan, inflation(19), loan_rate(16) (expert3 overrules expert4)",
			"{inflation(19), loan_rate(16), take_loan}",
			func(t *testing.T) string {
				return figureLeast(t, fmt.Sprintf(figLoanSrc, "inflation(19). loan_rate(16)."), "myself")
			}},
		{"E4", "Ex. 4 assumption-free model with CWA component",
			"{-a, -b}",
			func(t *testing.T) string {
				return figureStable(t, `module c2 { -a. -b. } module c1 extends c2 { a :- b. }`, "c1")
			}},
		{"E5", "Ex. 5 stable models in C1",
			"{-a, b, c} {a, -b, c}",
			func(t *testing.T) string { return figureStable(t, ex5Src, "c1") }},
		// The paper suggests "[green] | [red]" ("select exactly one of the
		// available non-ugly colors"). The literal program has one stable
		// model that colors both: the exception forces -colored(brown),
		// and brown then witnesses Y for every other color. EXPERIMENTS.md
		// §3, Finding 3, documents the deviation; E9' is the choice
		// encoding that matches the stated intent.
		{"E9", "Ex. 9 colors, literal program",
			"colored: [green red]",
			func(t *testing.T) string { return figureColored(t, colorsLiteralSrc) }},
		{"E9'", "Ex. 9 colors, choice encoding of the stated intent",
			"colored: [green] | [red]",
			func(t *testing.T) string { return figureColored(t, colorsChoiceSrc) }},
	} {
		t.Run(c.id, func(t *testing.T) {
			if got := c.got(t); got != c.want {
				t.Errorf("%s: got %s, want %s", c.what, got, c.want)
			}
		})
	}
}
