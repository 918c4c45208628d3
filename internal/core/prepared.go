package core

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/relevance"
)

// Prepared goals. What a read looks a query up by — its parse, its
// rendered text (the answer memo's key) and, on a goal-directed engine,
// its binding pattern (the slice cache's key) — is a function of the
// query's text alone, not of the version or the program. So a tenant
// prepares each goal text it is asked once, and every version it serves
// answers the same Goal: a repeated read skips the parser and every
// rendering, and a memo hit is map lookups (DESIGN §15).

// goalCacheSize bounds the prepared goals a tenant keeps. A client's
// working set of goals is tens to hundreds of texts, so 256 keeps all of
// one while a full map stays a few hundred bytes a goal, well under a
// tenant's ground program; a stream of goals never repeated (a sweep
// larger than the bound) only replaces entries and costs a parse each, as
// an unprepared read does.
const goalCacheSize = 256

// Goal is a conjunctive query prepared for answering: the parsed query and
// the keys a read looks it up by, each rendered once. A Goal is immutable
// and shared by concurrent readers, so nothing that reads one may change
// its query.
type Goal struct {
	q     ast.Query
	text  string // q.String(): the answer memo's key and its answers' query
	slice string // relevance.GoalKey on a goal-directed engine, else ""
}

// newGoal prepares q; sliced asks for the slice cache's key too, which
// only a goal-directed engine reads: the goal's binding pattern
// (relevance.GoalKey), so that goals differing only in variable names or
// literal order share a slice.
func newGoal(q ast.Query, sliced bool) Goal {
	g := Goal{q: q, text: q.String()}
	if sliced && len(q.Body) > 0 {
		g.slice = relevance.GoalKey(q.Body)
	}
	return g
}

// String returns the goal rendered as ast.Query.String renders it.
func (g *Goal) String() string { return g.text }

// Goal returns the tenant's prepared goal for a conjunctive goal text as
// written after ?- ("anc(c0, X), p(X)"), parsing and preparing it on first
// sight. Texts are keyed as given, so two spellings of one goal are two
// entries that share the answer memo's key. A text that does not parse is
// never kept: it fails again, with the same error, each time it is asked.
func (t *Tenant) Goal(text string) (*Goal, error) {
	t.goalMu.Lock()
	g := t.goals[text]
	t.goalMu.Unlock()
	if g != nil {
		if obs.On() {
			mGoalHits.Inc()
		}
		return g, nil
	}
	q, err := readGoal(text)
	if err != nil {
		return nil, err
	}
	g = new(Goal)
	*g = newGoal(q, t.eng.cfg.GoalDirected)
	t.goalMu.Lock()
	defer t.goalMu.Unlock()
	if had := t.goals[text]; had != nil {
		return had, nil
	}
	if t.goals == nil {
		t.goals = make(map[string]*Goal)
	} else if len(t.goals) >= goalCacheSize {
		for k := range t.goals {
			delete(t.goals, k)
			break
		}
		if obs.On() {
			mGoalEvictions.Inc()
		}
	}
	// The text is often a slice of a request's query string: the clone
	// keeps only the goal's own bytes alive.
	t.goals[strings.Clone(text)] = g
	if obs.On() {
		mGoalMisses.Inc()
	}
	return g, nil
}

// readGoal parses a conjunctive goal text as written after ?-: one goal
// and nothing else, so that clauses after a full stop are refused, not
// dropped.
func readGoal(text string) (ast.Query, error) {
	res, err := parser.Parse("?- " + text + ".")
	if err != nil {
		return ast.Query{}, err
	}
	if len(res.Queries) != 1 || len(res.Program.Components) > 0 {
		return ast.Query{}, fmt.Errorf("want exactly one goal, got %d goals and %d clauses", len(res.Queries), res.Program.NumRules())
	}
	return res.Queries[0], nil
}
