package repl_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/repl"
)

const penguinSrc = `
module birds {
  bird(penguin). bird(pigeon).
  fly(X) :- bird(X).
  -ground_animal(X) :- bird(X).
}
module arctic extends birds {
  ground_animal(penguin).
  -fly(X) :- ground_animal(X).
}
`

func session(t *testing.T, src string, commands ...string) string {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	r := repl.New(prog, core.Config{}, &out)
	in := strings.NewReader(strings.Join(commands, "\n") + "\n")
	if err := r.Run(context.Background(), in, 0); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestQueryCommand(t *testing.T) {
	out := session(t, penguinSrc, "?- fly(X).", "quit")
	if !strings.Contains(out, "X = pigeon") {
		t.Errorf("query output missing answer:\n%s", out)
	}
	out = session(t, penguinSrc, "?- fly(penguin).", "quit")
	if !strings.Contains(out, "no") {
		t.Errorf("false ground query should answer no:\n%s", out)
	}
	out = session(t, penguinSrc, "?- -fly(penguin).", "quit")
	if !strings.Contains(out, "yes") {
		t.Errorf("true ground query should answer yes:\n%s", out)
	}
}

func TestAssertRegrounds(t *testing.T) {
	out := session(t, penguinSrc,
		"?- bird(tweety).",
		"assert birds bird(tweety).",
		"?- fly(tweety).",
		"quit")
	// First query: no; after assert, tweety flies.
	if !strings.Contains(out, "no") || !strings.Contains(out, "yes") {
		t.Errorf("assert did not change answers:\n%s", out)
	}
	out = session(t, penguinSrc, "assert nowhere p.", "quit")
	if !strings.Contains(out, "unknown component") {
		t.Errorf("bad assert not rejected:\n%s", out)
	}
	out = session(t, penguinSrc, "assert birds p :-", "quit")
	if !strings.Contains(out, "error") {
		t.Errorf("syntax error not reported:\n%s", out)
	}
}

func TestModelCommands(t *testing.T) {
	out := session(t, penguinSrc, "least", "quit")
	if !strings.Contains(out, "-fly(penguin)") {
		t.Errorf("least output wrong:\n%s", out)
	}
	out = session(t, penguinSrc, "least birds", "quit")
	if !strings.Contains(out, "fly(penguin)") || strings.Contains(out, "-fly(penguin)") {
		t.Errorf("least birds output wrong:\n%s", out)
	}
	src := `
module c2 { a. b. c. }
module c1 extends c2 { -a :- b, c. -b :- a. -b :- -b. }
`
	out = session(t, src, "stable", "quit")
	if !strings.Contains(out, "1: ") || !strings.Contains(out, "2: ") {
		t.Errorf("stable output wrong:\n%s", out)
	}
	out = session(t, src, "cautious", "quit")
	if !strings.Contains(out, "over 2 stable models") || !strings.Contains(out, "  c") {
		t.Errorf("cautious output wrong:\n%s", out)
	}
}

func TestProveAndExplainCommands(t *testing.T) {
	out := session(t, penguinSrc, "prove -fly(penguin)", "quit")
	if !strings.Contains(out, "proved -fly(penguin)") {
		t.Errorf("prove output wrong:\n%s", out)
	}
	out = session(t, penguinSrc, "prove fly(penguin)", "quit")
	if !strings.Contains(out, "no") {
		t.Errorf("failed proof should say no:\n%s", out)
	}
	out = session(t, penguinSrc, "explain fly(penguin)", "quit")
	if !strings.Contains(out, "value F") || !strings.Contains(out, "overruled") {
		t.Errorf("explain output wrong:\n%s", out)
	}
}

func TestComponentSwitchAndStats(t *testing.T) {
	out := session(t, penguinSrc,
		"component birds",
		"?- fly(penguin).",
		"quit")
	if !strings.Contains(out, "yes") {
		t.Errorf("component switch ineffective:\n%s", out)
	}
	out = session(t, penguinSrc, "stats", "quit")
	if !strings.Contains(out, "ground rules") {
		t.Errorf("stats output wrong:\n%s", out)
	}
	out = session(t, penguinSrc, "list", "quit")
	if !strings.Contains(out, "module birds {") {
		t.Errorf("list output wrong:\n%s", out)
	}
	out = session(t, penguinSrc, "bogus command", "quit")
	if !strings.Contains(out, "unknown command") {
		t.Errorf("unknown command not reported:\n%s", out)
	}
	out = session(t, penguinSrc, "help", "quit")
	if !strings.Contains(out, "assert <comp> <clause>") {
		t.Errorf("help output wrong:\n%s", out)
	}
}

func TestAnalyzeAndGroundCommands(t *testing.T) {
	src := `
module c3 { rich(mimmo). -poor(X) :- rich(X). }
module c2 { poor(mimmo). -rich(X) :- poor(X). }
module c1 extends c2, c3 { free_ticket(X) :- poor(X). }
`
	out := session(t, src, "analyze", "quit")
	if !strings.Contains(out, "may defeat each other") {
		t.Errorf("analyze output wrong:\n%s", out)
	}
	out = session(t, src, "ground", "quit")
	if !strings.Contains(out, "% component c1") || !strings.Contains(out, "instances over") {
		t.Errorf("ground output wrong:\n%s", out)
	}
	if !strings.Contains(out, "free_ticket(mimmo) :- poor(mimmo).") {
		t.Errorf("ground dump missing instance:\n%s", out)
	}
}

// Facts written to a live engine are part of the program a rebuild starts
// from, and of what list prints: the engine's effective program.
func TestWritesSurviveRebuild(t *testing.T) {
	out := session(t, penguinSrc,
		"stats", // builds the engine: the writes below are incremental
		"assert birds bird(tweety).",
		"retract birds bird(pigeon).",
		"assert birds sings(X) :- bird(X).",
		"?- sings(X).",
		"list",
		"quit")
	if !strings.Contains(out, "X = penguin") || !strings.Contains(out, "X = tweety") || strings.Contains(out, "X = pigeon") {
		t.Errorf("the rebuild lost a write:\n%s", out)
	}
	if !strings.Contains(out, "bird(tweety).") || strings.Contains(out, "bird(pigeon).") {
		t.Errorf("list does not print the effective program:\n%s", out)
	}
}
