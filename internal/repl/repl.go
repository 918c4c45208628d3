// Package repl implements the interactive shell behind "ordlog -i": a
// small knowledge-base console in the spirit the paper's conclusion
// sketches. Ground facts are asserted and retracted through the engine's
// incremental snapshot machinery (no re-grounding); asserting a proper
// rule rebuilds the engine lazily. Queries, membership checks, proofs and
// model requests all read the current snapshot. Each command runs under
// the session's per-command budget, if it has one: a command over budget
// prints an "interrupted" error and the next command starts afresh.
//
// Commands (one per line):
//
//	?- <literals>.          query against the current least model
//	assert <comp> <clause>  add a fact (incremental) or rule to a component
//	retract <comp> <fact>   remove a ground fact (incremental)
//	least [comp]            print the least model
//	stable [comp]           print the stable models
//	cautious [comp]         print the cautious consequences
//	prove <literal>         goal-directed proof with derivation tree
//	explain <atom>          rule statuses around an atom
//	component <name>        set the default component
//	analyze                 static diagnostics over the current program
//	ground                  dump the ground program
//	stats                   grounding statistics
//	list                    print the current program
//	help                    this text
//	quit                    leave
package repl

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/analyze"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/stable"
)

// REPL is an interactive session over one ordered program.
type REPL struct {
	prog   *ast.OrderedProgram // facts written to a live eng are in its snapshot until flush
	eng    *core.Engine        // nil when dirty
	comp   string              // default component ("" = engine default)
	out    io.Writer
	cfg    core.Config
	prompt string
}

// New returns a session over the program (which may be empty).
func New(prog *ast.OrderedProgram, cfg core.Config, out io.Writer) *REPL {
	return &REPL{prog: prog, cfg: cfg, out: out, prompt: "> "}
}

// Run reads commands until EOF or quit. Each command runs under a context
// derived from ctx with a budget deadline; budget 0 means no deadline.
func (r *REPL) Run(ctx context.Context, in io.Reader, budget time.Duration) error {
	sc := bufio.NewScanner(in)
	fmt.Fprint(r.out, r.prompt)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			cmdCtx, cancel := ctx, func() {}
			if budget > 0 {
				cmdCtx, cancel = context.WithTimeout(ctx, budget)
			}
			quit := r.Exec(cmdCtx, line)
			cancel()
			if quit {
				return nil
			}
		}
		fmt.Fprint(r.out, r.prompt)
	}
	return sc.Err()
}

// Exec runs one command line under ctx, which interrupts grounding and
// evaluation; it returns true on quit.
func (r *REPL) Exec(ctx context.Context, line string) bool {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(r.out, "error: internal panic: %v\n", p)
		}
	}()
	switch {
	case line == "quit" || line == "exit":
		return true
	case line == "help":
		r.help()
	case line == "stats":
		r.stats(ctx)
	case line == "list":
		if err := r.flush(); err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
			return false
		}
		fmt.Fprint(r.out, r.prog.String())
	case line == "analyze":
		for _, d := range analyze.Program(r.prog) {
			fmt.Fprintln(r.out, d)
		}
	case line == "ground":
		eng, err := r.engine(ctx)
		if err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
			return false
		}
		if err := eng.Grounded().Dump(r.out); err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
		}
	case strings.HasPrefix(line, "?-"):
		r.query(ctx, line)
	case strings.HasPrefix(line, "assert "):
		r.assert(ctx, strings.TrimPrefix(line, "assert "))
	case strings.HasPrefix(line, "retract "):
		r.retract(ctx, strings.TrimPrefix(line, "retract "))
	case line == "least" || strings.HasPrefix(line, "least "):
		r.least(ctx, strings.TrimSpace(strings.TrimPrefix(line, "least")))
	case line == "stable" || strings.HasPrefix(line, "stable "):
		r.stable(ctx, strings.TrimSpace(strings.TrimPrefix(line, "stable")))
	case line == "cautious" || strings.HasPrefix(line, "cautious "):
		r.cautious(ctx, strings.TrimSpace(strings.TrimPrefix(line, "cautious")))
	case strings.HasPrefix(line, "prove "):
		r.prove(ctx, strings.TrimSpace(strings.TrimPrefix(line, "prove ")))
	case strings.HasPrefix(line, "explain "):
		r.explain(ctx, strings.TrimSpace(strings.TrimPrefix(line, "explain ")))
	case strings.HasPrefix(line, "component "):
		r.comp = strings.TrimSpace(strings.TrimPrefix(line, "component "))
		fmt.Fprintf(r.out, "default component: %s\n", r.comp)
	default:
		fmt.Fprintf(r.out, "error: unknown command %q (try help)\n", line)
	}
	return false
}

func (r *REPL) help() {
	fmt.Fprint(r.out, `commands:
  ?- <literals>.          query the least model
  assert <comp> <clause>  add a fact (incremental) or rule to a component
  retract <comp> <fact>   remove a ground fact (incremental)
  least | stable | cautious [comp]
  prove <literal>         goal-directed proof
  explain <atom>          rule statuses
  component <name>        set default component
  analyze                 static diagnostics
  ground                  dump the ground program
  stats | list | help | quit
`)
}

func (r *REPL) engine(ctx context.Context) (*core.Engine, error) {
	if r.eng != nil {
		return r.eng, nil
	}
	eng, err := core.NewEngineCtx(ctx, r.prog, r.cfg)
	if err != nil {
		return nil, err
	}
	r.eng = eng
	return eng, nil
}

func (r *REPL) compOr(arg string) string {
	if arg != "" {
		return arg
	}
	return r.comp
}

func (r *REPL) query(ctx context.Context, line string) {
	res, err := parser.Parse(line)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	if len(res.Queries) != 1 {
		fmt.Fprintln(r.out, "error: expected exactly one query")
		return
	}
	eng, err := r.engine(ctx)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	m, err := eng.LeastModelCtx(ctx, r.comp)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	q := res.Queries[0]
	answers := m.Query(q)
	if len(answers) == 0 {
		fmt.Fprintln(r.out, "no")
		return
	}
	vars := q.Vars()
	if len(vars) == 0 {
		fmt.Fprintln(r.out, "yes")
		return
	}
	for _, b := range answers {
		parts := make([]string, 0, len(vars))
		for _, v := range vars {
			parts = append(parts, v.Name+" = "+b[v.Name].String())
		}
		fmt.Fprintln(r.out, strings.Join(parts, ", "))
	}
}

func (r *REPL) assert(ctx context.Context, rest string) {
	fields := strings.SplitN(rest, " ", 2)
	if len(fields) != 2 {
		fmt.Fprintln(r.out, "error: usage: assert <component> <clause>")
		return
	}
	comp, clause := fields[0], fields[1]
	rule, err := parser.ParseRule(clause)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	if r.prog.Component(comp) == nil {
		fmt.Fprintf(r.out, "error: unknown component %q\n", comp)
		return
	}
	// Ground facts against a live engine go through the incremental
	// snapshot machinery; the source program catches up lazily (flush) when
	// a proper rule forces a rebuild.
	if r.eng != nil && rule.IsGroundFact() {
		snap, err := r.eng.Update(ctx, comp, []ast.Literal{rule.Head})
		if err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
			return
		}
		fmt.Fprintf(r.out, "asserted in %s: %s (version %d)\n", comp, rule, snap.Version())
		return
	}
	if err := r.flush(); err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	r.prog.Component(comp).AddRule(rule)
	r.eng = nil // re-ground lazily
	fmt.Fprintf(r.out, "added to %s: %s\n", comp, rule)
}

func (r *REPL) retract(ctx context.Context, rest string) {
	fields := strings.SplitN(rest, " ", 2)
	if len(fields) != 2 {
		fmt.Fprintln(r.out, "error: usage: retract <component> <fact>")
		return
	}
	comp, arg := fields[0], strings.TrimSuffix(strings.TrimSpace(fields[1]), ".")
	lit, err := parser.ParseLiteral(arg)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	if !lit.Atom.Ground() {
		fmt.Fprintln(r.out, "error: retract needs a ground fact")
		return
	}
	if r.prog.Component(comp) == nil {
		fmt.Fprintf(r.out, "error: unknown component %q\n", comp)
		return
	}
	eng, err := r.engine(ctx)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	snap, err := eng.Retract(ctx, comp, []ast.Literal{lit})
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(r.out, "retracted from %s: %s (version %d)\n", comp, lit, snap.Version())
}

// flush makes the program the live engine's effective program (its
// source with the facts written since replayed), so a rebuild from r.prog
// starts from the state the retiring engine ended at.
func (r *REPL) flush() error {
	if r.eng == nil {
		return nil
	}
	p, err := r.eng.Current().EffectiveProgram()
	if err == nil {
		r.prog = p
	}
	return err
}

func (r *REPL) least(ctx context.Context, comp string) {
	eng, err := r.engine(ctx)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	m, err := eng.LeastModelCtx(ctx, r.compOr(comp))
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	fmt.Fprintln(r.out, m)
}

func (r *REPL) stable(ctx context.Context, comp string) {
	eng, err := r.engine(ctx)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	ms, err := eng.StableModelsCtx(ctx, r.compOr(comp), stable.Options{})
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	for i, m := range ms {
		fmt.Fprintf(r.out, "%d: %s\n", i+1, m)
	}
}

func (r *REPL) cautious(ctx context.Context, comp string) {
	eng, err := r.engine(ctx)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	cons, err := eng.ReasonCtx(ctx, r.compOr(comp), stable.Options{})
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(r.out, "over %d stable models:\n", cons.NumModels())
	for _, l := range cons.CautiousLiterals() {
		fmt.Fprintln(r.out, "  "+l.String())
	}
}

func (r *REPL) prove(ctx context.Context, arg string) {
	lit, err := parser.ParseLiteral(strings.TrimSuffix(arg, "."))
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	eng, err := r.engine(ctx)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	tree, ok, err := eng.ProveExplainCtx(ctx, r.comp, lit)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	if !ok {
		fmt.Fprintln(r.out, "no")
		return
	}
	fmt.Fprint(r.out, tree)
}

func (r *REPL) explain(ctx context.Context, arg string) {
	lit, err := parser.ParseLiteral(strings.TrimSuffix(arg, "."))
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	eng, err := r.engine(ctx)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	m, err := eng.LeastModelCtx(ctx, r.comp)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(r.out, "%s has value %s\n", lit.Atom, m.Value(lit.Atom))
	for _, line := range m.Explain(lit.Atom) {
		fmt.Fprintln(r.out, "  "+line)
	}
}

func (r *REPL) stats(ctx context.Context) {
	eng, err := r.engine(ctx)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(r.out, "components: %d, ground rules: %d, relevant atoms: %d, version: %d\n",
		len(r.prog.Components), eng.NumGroundRules(), eng.NumAtoms(), eng.Current().Version())
}
