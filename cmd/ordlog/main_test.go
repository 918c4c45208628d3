package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/transform"
	"repro/internal/workload"
)

// runOut drives run on one testdata program and returns what it printed.
func runOut(t *testing.T, file string, goalDirected, jsonOut bool) string {
	t.Helper()
	var buf bytes.Buffer
	o := options{semantics: "ordered", models: "least", mode: "smart", goalDirected: goalDirected, json: jsonOut}
	if err := run(context.Background(), &buf, filepath.Join("..", "..", "testdata", file), o); err != nil {
		t.Fatalf("%s (goal-directed=%v, json=%v): %v", file, goalDirected, jsonOut, err)
	}
	return buf.String()
}

// TestRunModesAgree: model mode prints the least model and then every
// query's answers in file order; -goal-directed answers the same queries
// from their slices (over the batch pool) and prints only the answers.
// Both must print the same answers in the same order, with and without
// -json, so model mode's output is the model followed by exactly what
// goal-directed mode prints.
func TestRunModesAgree(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.olp"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, path := range files {
		file := filepath.Base(path)
		for _, jsonOut := range []bool{false, true} {
			model := runOut(t, file, false, jsonOut)
			goal := runOut(t, file, true, jsonOut)
			head, ok := strings.CutSuffix(model, goal)
			if !ok {
				t.Errorf("%s (json=%v): goal-directed answers are not model mode's\nmodel mode:\n%s\ngoal-directed:\n%s", file, jsonOut, model, goal)
				continue
			}
			// What precedes the answers is the model alone: one JSON
			// object, or a header line and the model's line.
			if jsonOut {
				if !strings.HasPrefix(head, "{\n  \"component\":") || strings.Contains(head, "\"query\"") {
					t.Errorf("%s: model mode's JSON before the answers is not one model:\n%s", file, head)
				}
			} else if lines := strings.Split(strings.TrimSuffix(head, "\n"), "\n"); len(lines) != 2 || !strings.HasPrefix(lines[0], "% least model in ") {
				t.Errorf("%s: model mode's text before the answers is not one model:\n%s", file, head)
			}
		}
	}
}

// TestRunMultiQueryOrder pins the answers of the multi-query program in
// both modes: each query in file order, its answer count, its bindings.
func TestRunMultiQueryOrder(t *testing.T) {
	const want = `?- price(vase, P).  % 1 answers
  P = 150
?- fragile(X).  % 2 answers
  X = tumbler
  X = vase
`
	if got := runOut(t, "shop.olp", true, false); got != want {
		t.Errorf("-goal-directed:\n got %q\nwant %q", got, want)
	}
	if got := runOut(t, "shop.olp", false, false); !strings.HasSuffix(got, "\n"+want) {
		t.Errorf("model mode:\n got %q\nwant a suffix %q", got, want)
	}
	jsonGot := runOut(t, "shop.olp", true, true)
	price := strings.Index(jsonGot, `"query": "?- price(vase, P)."`)
	fragile := strings.Index(jsonGot, `"query": "?- fragile(X)."`)
	if price < 0 || fragile < price || strings.Count(jsonGot, `"query"`) != 2 {
		t.Errorf("-goal-directed -json: queries missing or out of file order:\n%s", jsonGot)
	}
}

// TestREPLDeadline: with -i, -timeout bounds every shell command. A
// stable-model search over 30 disjoint win–move 2-cycles (3^30
// assumption-free models, far beyond any budget) is cut at the deadline
// with an "interrupted" error, and the next command, under a fresh budget,
// still answers.
func TestREPLDeadline(t *testing.T) {
	var edges [][2]int
	for i := 0; i < 60; i += 2 {
		edges = append(edges, [2]int{i, i + 1}, [2]int{i + 1, i})
	}
	prog, err := transform.OV("main", workload.WinMove(edges))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "winmove.olp")
	if err := os.WriteFile(path, []byte(prog.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	const budget = 300 * time.Millisecond
	in := strings.NewReader("component main\nstable\n?- move(c0, c1).\n")
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- runREPL([]string{path}, in, &out, budget) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * budget):
		t.Fatalf("session still running after %v with a %v budget per command", 30*budget, budget)
	}
	lines := strings.Split(out.String(), "\n")
	stableAt, answerAt := -1, -1
	for i, l := range lines {
		if strings.Contains(l, "error: interrupted") && stableAt < 0 {
			stableAt = i
		}
		if strings.HasSuffix(l, "yes") {
			answerAt = i
		}
	}
	if stableAt < 0 || answerAt <= stableAt {
		t.Errorf("want an interrupted stable command, then a yes answer; got:\n%s", out.String())
	}
}
