// Access-control policies as an ordered knowledge base — the "knowledge
// base systems of great flexibility" the paper's conclusion claims. A
// company-wide default policy specialises department policies; an
// incident-response module overrides everything during an incident; and a
// closed-world module at the very top (the §3 idiom) makes the EDB
// predicates default to false so that unmatched conditions *block* rules
// instead of leaving them as eternal defeaters. Genuinely conflicting
// unordered policies (a legal hold against an engineering grant) defeat
// each other, surfacing the gap instead of silently picking a side.
package main

import (
	"context"
	"fmt"
	"log"

	ordlog "repro"
	"repro/internal/analyze"
)

const policies = `
% Closed world for the extensional predicates: false unless asserted.
module assumptions {
  -employee(X1).  -eng(X1).       -contractor(X1).  -responder(X1).
  -document(X1).  -eng_doc(X1).   -secret(X1).      -held(X1).
  -incident_now.
}

% Company default: employees may read; nobody may write unless granted.
module company extends assumptions {
  may_read(U, D) :- employee(U), document(D).
  -may_write(U, D) :- employee(U), document(D).
}

% Engineering grants write access to its own documents and keeps
% contractors away from secrets.
module engineering extends company {
  may_write(U, D) :- eng(U), eng_doc(D).
  -may_read(U, D) :- contractor(U), secret(D).
}

% Legal hold: held documents are frozen. Unordered w.r.t. engineering:
% a held engineering document is a genuine conflict.
module legal extends company {
  -may_write(U, D) :- held(D), employee(U).
}

% Incident response sits below both: during an incident it wins outright.
module incident extends engineering, legal {
  -may_read(U, D) :- incident_now, document(D), employee(U), -responder(U).
  may_write(U, D) :- incident_now, responder(U), document(D).
}

module site extends incident {
  employee(alice).  eng(alice).
  employee(bob).    contractor(bob).
  employee(carol).  responder(carol). employee(carol2).

  document(design). eng_doc(design).
  document(contract). secret(contract).
  document(runbook). eng_doc(runbook). held(runbook).
}
`

func check(m *ordlog.Model, what, expect string) {
	lit, err := ordlog.ParseLiteral(what)
	if err != nil {
		log.Fatal(err)
	}
	got := m.Value(lit.Atom).String()
	marker := ""
	if got != expect {
		marker = "  <-- UNEXPECTED, wanted " + expect
	}
	fmt.Printf("  %-28s %s%s\n", what, got, marker)
}

func main() {
	prog, err := ordlog.ParseProgram(policies)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("policy diagnostics:")
	for _, d := range analyze.Program(prog) {
		fmt.Println("  " + d.String())
	}

	ctx := context.Background()
	eng, err := ordlog.NewEngineCtx(ctx, prog, ordlog.Config{})
	if err != nil {
		log.Fatal(err)
	}
	m, err := eng.LeastModelCtx(ctx, "site")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nnormal operations (no incident):")
	check(m, "may_write(alice, design)", "T")  // engineering grant beats company default
	check(m, "may_write(alice, runbook)", "U") // grant vs legal hold: defeated, a real gap
	check(m, "may_read(bob, contract)", "F")   // contractor on a secret
	check(m, "may_read(alice, contract)", "T") // company default survives
	check(m, "may_write(bob, contract)", "F")  // company default

	fmt.Println("\nwhy is may_write(alice, runbook) undefined?")
	lit, err := ordlog.ParseLiteral("may_write(alice, runbook)")
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range m.Explain(lit.Atom) {
		fmt.Println("  " + line)
	}

	// Declare an incident and re-evaluate: incident rules overrule all.
	// Engine.Update publishes a new immutable snapshot incrementally — no
	// reparse or rebuild — and readers still holding m keep their version.
	facts, err := ordlog.ParseFacts("incident_now.")
	if err != nil {
		log.Fatal(err)
	}
	snap, err := eng.Update(ctx, "site", facts)
	if err != nil {
		log.Fatal(err)
	}
	m2, err := snap.LeastModelCtx(ctx, "site")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nduring an incident:")
	check(m2, "may_read(alice, design)", "F")   // non-responders locked out
	check(m2, "may_read(carol, design)", "T")   // responders keep access
	check(m2, "may_write(carol, runbook)", "T") // incident override beats the legal hold
}
