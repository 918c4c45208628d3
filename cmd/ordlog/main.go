// Command ordlog evaluates ordered logic programs: it loads a .olp file,
// computes the requested models in the requested component, answers the
// queries embedded in the file, and can explain the rule statuses behind a
// particular atom.
//
// Usage:
//
//	ordlog [flags] program.olp
//
//	-component name    target component (default: the most specific one)
//	-semantics s       ordered | ov | ev | 3v (default ordered; ov/ev
//	                   require a seminegative single-component program,
//	                   3v a negative single-component program)
//	-models kind       least | stable | af | cautious (default least)
//	-max-models n      cap for stable/af enumeration (default all)
//	-mode m            smart | full grounding (default smart)
//	-explain atom      print the rule statuses around one ground atom
//	-prove literal     goal-directed proof with derivation tree
//	-goal-directed     answer the file's queries and -prove from per-goal
//	                   slices of the ground program: each goal evaluates
//	                   only the instances its atoms reach (the queries run
//	                   over a pool of GOMAXPROCS workers), no full model is
//	                   printed (least-model semantics only)
//	-edb file          merge a facts file into the target component
//	-timeout d         wall-clock budget for grounding + evaluation (e.g.
//	                   500ms, 2s; 0 = none). On expiry, enumeration prints
//	                   whatever models were already found and exits 1 with
//	                   an "interrupted" error; with -i the budget applies to
//	                   each shell command, and a command over it prints an
//	                   "interrupted" error
//	-json              machine-readable output
//	-stats             print grounding statistics
//	-metrics-addr a    serve /debug/metrics (engine counters as JSON) and
//	                   net/http/pprof on this address (e.g. localhost:6060,
//	                   :0 for an ephemeral port; printed to stderr)
//	-metrics-hold d    keep the metrics listener up this long after the run
//	                   finishes (so one-shot runs can be scraped; default 0)
//	-i                 interactive shell (see internal/repl)
//	-analyze           static diagnostics (internal/analyze) and exit;
//	                   with -prove also lints rules unreachable from the goal
//	-dot order|deps    GraphViz of the component lattice or predicate deps;
//	                   deps with -prove renders the adorned graph for the goal
//
// The wal subcommand inspects a durability directory written by ordlogd
// -data-dir (see internal/wal):
//
//	ordlog wal verify dir   strict CRC + hash-chain + checkpoint check
//	ordlog wal dump dir     print checkpoints and records
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	ordlog "repro"
	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/transform"
)

func main() {
	// `ordlog wal <verify|dump> <dir>` is a subcommand with its own argument
	// shape; intercept it before the flag machinery sees the arguments.
	if len(os.Args) >= 2 && os.Args[1] == "wal" {
		os.Exit(runWAL(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.component, "component", "", "target component (default: most specific)")
	flag.StringVar(&o.semantics, "semantics", "ordered", "ordered | ov | ev | 3v")
	flag.StringVar(&o.models, "models", "least", "least | stable | af | cautious")
	flag.IntVar(&o.maxModels, "max-models", 0, "cap for stable/af enumeration (0 = all)")
	flag.StringVar(&o.mode, "mode", "smart", "smart | full grounding")
	flag.StringVar(&o.explain, "explain", "", "ground atom to explain")
	flag.StringVar(&o.prove, "prove", "", "ground literal to prove goal-directedly")
	flag.BoolVar(&o.goalDirected, "goal-directed", false, "answer queries and -prove from per-goal slices of the ground program (no full model)")
	flag.StringVar(&o.edb, "edb", "", "facts file merged into the target component before grounding")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for grounding + evaluation (0 = none)")
	flag.BoolVar(&o.json, "json", false, "emit models and answers as JSON")
	flag.BoolVar(&o.stats, "stats", false, "print grounding statistics")
	metricsAddr := flag.String("metrics-addr", "", "serve /debug/metrics and net/http/pprof on this address")
	metricsHold := flag.Duration("metrics-hold", 0, "keep the metrics listener up this long after the run finishes")
	interactive := flag.Bool("i", false, "interactive shell (optionally preloading the program)")
	analyzeFlag := flag.Bool("analyze", false, "print static diagnostics and exit")
	dot := flag.String("dot", "", "emit GraphViz and exit: order | deps")
	flag.Parse()
	stopMetrics := func() {}
	if *metricsAddr != "" {
		shutdown, err := serveMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ordlog: -metrics-addr:", err)
			os.Exit(1)
		}
		stopMetrics = shutdown
	}
	if (*analyzeFlag || *dot != "") && flag.NArg() == 1 {
		if err := runAnalysis(flag.Arg(0), *analyzeFlag, *dot, o.prove); err != nil {
			fmt.Fprintln(os.Stderr, "ordlog:", err)
			os.Exit(1)
		}
		return
	}
	if *interactive {
		if err := runREPL(flag.Args(), os.Stdin, os.Stdout, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, "ordlog:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ordlog [flags] program.olp")
		flag.Usage()
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	err := run(ctx, os.Stdout, flag.Arg(0), o)
	if *metricsAddr != "" && *metricsHold > 0 {
		fmt.Fprintf(os.Stderr, "ordlog: holding metrics listener for %s\n", *metricsHold)
		time.Sleep(*metricsHold)
	}
	stopMetrics()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ordlog:", err)
		os.Exit(1)
	}
}

// serveMetrics starts the observability endpoint in the background: engine
// counters as flat JSON at /debug/metrics (see internal/obs) plus the
// standard pprof handlers. The listener is bound synchronously so the
// resolved address (":0" picks an ephemeral port) can be printed before any
// engine work starts. The server is the shared hardened one (header read
// timeout, bounded headers — see serve.NewHTTPServer), and the returned
// shutdown function drains it instead of abandoning the listener: a scrape
// racing process exit finishes instead of getting its connection cut.
func serveMetrics(addr string) (shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/metrics", obs.Default().Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintf(os.Stderr, "ordlog: metrics on http://%s/debug/metrics\n", ln.Addr())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// serve.Serve swallows http.ErrServerClosed — only real failures
		// (broken listener, drain overrun) are worth a line on stderr.
		if err := serve.Serve(ctx, serve.NewHTTPServer(mux), ln, 2*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "ordlog: metrics server:", err)
		}
	}()
	return func() {
		cancel()
		<-done
	}, nil
}

func runAnalysis(path string, diags bool, dot, prove string) error {
	res, err := ordlog.ParseFile(path)
	if err != nil {
		return err
	}
	// A -prove goal adorns the analysis: the lint gains the rules
	// unreachable from the goal, the deps graph gains binding patterns.
	var goal []ordlog.Literal
	if prove != "" {
		lit, err := ordlog.ParseLiteral(prove)
		if err != nil {
			return fmt.Errorf("-prove: %v", err)
		}
		goal = []ordlog.Literal{lit}
	}
	if diags {
		ds := analyze.Program(res.Program)
		if goal != nil {
			ds = append(ds, analyze.GoalUnreachable(res.Program, goal)...)
		}
		for _, d := range ds {
			fmt.Println(d)
		}
	}
	switch dot {
	case "":
	case "order":
		fmt.Print(analyze.OrderDOT(res.Program))
	case "deps":
		if goal != nil {
			fmt.Print(analyze.AdornedDepsDOT(res.Program, goal))
		} else {
			fmt.Print(analyze.DepsDOT(res.Program))
		}
	default:
		return fmt.Errorf("unknown -dot %q (want order or deps)", dot)
	}
	return nil
}

// runREPL runs the interactive shell over the program in args (or an empty
// one), reading commands from in; each command runs under budget (0 =
// none).
func runREPL(args []string, in io.Reader, out io.Writer, budget time.Duration) error {
	var prog *ordlog.Program
	if len(args) == 1 {
		res, err := ordlog.ParseFile(args[0])
		if err != nil {
			return err
		}
		prog = res.Program
	} else if len(args) == 0 {
		var err error
		prog, err = ordlog.ParseProgram("module main { }")
		if err != nil {
			return err
		}
	} else {
		return fmt.Errorf("usage: ordlog -i [program.olp]")
	}
	fmt.Fprintln(out, "ordered logic shell — type help for commands")
	return repl.New(prog, core.Config{}, out).Run(context.Background(), in, budget)
}

// printAnswers renders one query's answer set: a JSON object with -json,
// otherwise the query and its answer count, then one indented line per
// binding ("true" for the empty binding of a ground query).
func printAnswers(w io.Writer, q ordlog.Query, answers []ordlog.Binding, jsonOut bool) error {
	if jsonOut {
		jb, err := core.BindingsJSON(q, answers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(jb))
		return nil
	}
	fmt.Fprintf(w, "%s  %% %d answers\n", q, len(answers))
	for _, b := range answers {
		if len(b) == 0 {
			fmt.Fprintln(w, "  true")
			continue
		}
		line := "  "
		first := true
		for _, v := range q.Vars() {
			if !first {
				line += ", "
			}
			first = false
			line += v.Name + " = " + b[v.Name].String()
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

// options are the evaluation flags of one run (see the command doc).
type options struct {
	component, semantics, models string
	maxModels                    int
	mode, explain, prove, edb    string
	goalDirected, json, stats    bool
}

// run evaluates the program in path as the flags in o ask and writes the
// result to w.
func run(ctx context.Context, w io.Writer, path string, o options) error {
	res, err := ordlog.ParseFile(path)
	if err != nil {
		return err
	}
	prog := res.Program
	component := o.component
	if o.edb != "" {
		b, err := os.ReadFile(o.edb)
		if err != nil {
			return err
		}
		target := component
		if target == "" {
			target = parser.MainComponent
		}
		if err := ordlog.MergeFacts(prog, target, string(b)); err != nil {
			return fmt.Errorf("-edb: %v", err)
		}
	}

	switch o.semantics {
	case "ordered":
	case "ov", "ev", "3v":
		rules, err := transform.FlattenSingle(prog)
		if err != nil {
			return fmt.Errorf("-semantics %s needs a module-free program: %v", o.semantics, err)
		}
		switch o.semantics {
		case "ov":
			prog, err = ordlog.OV(parser.MainComponent, rules)
		case "ev":
			prog, err = ordlog.EV(parser.MainComponent, rules)
		case "3v":
			prog, err = ordlog.ThreeV(rules)
			if err == nil && component == "" {
				component = transform.ExceptionsName
			}
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -semantics %q", o.semantics)
	}

	cfg := ordlog.Config{}
	switch o.mode {
	case "smart":
	case "full":
		cfg.Ground = ground.DefaultOptions()
		cfg.Ground.Mode = ground.ModeFull
	default:
		return fmt.Errorf("unknown -mode %q", o.mode)
	}
	if o.goalDirected {
		if o.models != "least" {
			return fmt.Errorf("-goal-directed answers least-model queries only (got -models %s)", o.models)
		}
		if o.explain != "" {
			return fmt.Errorf("-explain needs the full model; drop -goal-directed")
		}
		cfg.GoalDirected = true
	}

	eng, err := ordlog.NewEngineCtx(ctx, prog, cfg)
	if err != nil {
		return err
	}
	if component == "" {
		component, err = eng.DefaultComponent()
		if err != nil {
			return err
		}
	}
	if o.stats {
		fmt.Fprintf(w, "%% components: %d, ground rules: %d, relevant atoms: %d\n",
			len(prog.Components), eng.NumGroundRules(), eng.NumAtoms())
	}

	if o.prove != "" {
		lit, err := ordlog.ParseLiteral(o.prove)
		if err != nil {
			return fmt.Errorf("-prove: %v", err)
		}
		if o.goalDirected {
			// The proof runs over the literal's slice; the
			// derivation tree is an -explain-style full-model feature.
			ok, err := eng.ProveCtx(ctx, component, lit)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%% prove %s in %s: %v (goal-directed)\n", lit, component, ok)
		} else {
			tree, ok, err := eng.ProveExplainCtx(ctx, component, lit)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%% prove %s in %s: %v\n", lit, component, ok)
			if ok {
				fmt.Fprint(w, tree)
			}
		}
	}

	// Goal-directed mode prints answers only: each query evaluates just its
	// own slice, so materialising (or printing) the full least model would
	// defeat the point. The slices are independent, so the batch cuts and
	// evaluates them in parallel.
	if o.goalDirected {
		reqs := make([]ordlog.QueryRequest, len(res.Queries))
		for i, q := range res.Queries {
			reqs[i] = ordlog.QueryRequest{Comp: component, Query: q}
		}
		results := eng.QueryBatchCtx(ctx, reqs)
		for qi, q := range res.Queries {
			if results[qi].Err != nil {
				return results[qi].Err
			}
			if err := printAnswers(w, q, results[qi].Bindings, o.json); err != nil {
				return err
			}
		}
		return nil
	}

	if o.models == "cautious" {
		cons, err := eng.ReasonCtx(ctx, component, ordlog.EnumOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%% cautious consequences over %d stable models in %s\n", cons.NumModels(), component)
		for _, l := range cons.CautiousLiterals() {
			fmt.Fprintln(w, l)
		}
		return nil
	}

	// enumErr records a budget/interruption error from enumeration; the
	// partial models that accompany it are still printed before exiting
	// non-zero.
	var out []*ordlog.Model
	var enumErr error
	partial := func(err error) bool {
		return errors.Is(err, ordlog.ErrEnumBudget) || errors.Is(err, ordlog.ErrInterrupted)
	}
	switch o.models {
	case "least":
		m, err := eng.LeastModelCtx(ctx, component)
		if err != nil {
			return err
		}
		out = []*ordlog.Model{m}
	case "stable":
		out, err = eng.StableModelsCtx(ctx, component, ordlog.EnumOptions{MaxModels: o.maxModels})
		if err != nil && !partial(err) {
			return err
		}
		enumErr = err
	case "af":
		out, err = eng.AssumptionFreeModelsCtx(ctx, component, ordlog.EnumOptions{MaxModels: o.maxModels})
		if err != nil && !partial(err) {
			return err
		}
		enumErr = err
	default:
		return fmt.Errorf("unknown -models %q", o.models)
	}
	if enumErr != nil {
		fmt.Fprintf(w, "%% enumeration incomplete (%d models found before interruption)\n", len(out))
	}

	// Each model is already materialised, so its queries are matched
	// against it in a plain loop.
	for i, m := range out {
		if o.json {
			b, err := m.JSON(false)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, string(b))
		} else {
			if len(out) > 1 {
				fmt.Fprintf(w, "%% %s model %d of %d in %s\n", o.models, i+1, len(out), component)
			} else {
				fmt.Fprintf(w, "%% %s model in %s\n", o.models, component)
			}
			fmt.Fprintln(w, m)
		}
		for _, q := range res.Queries {
			if err := printAnswers(w, q, m.Query(q), o.json); err != nil {
				return err
			}
		}
	}

	if o.explain != "" && len(out) > 0 {
		lit, err := ordlog.ParseLiteral(o.explain)
		if err != nil {
			return fmt.Errorf("-explain: %v", err)
		}
		m := out[0]
		fmt.Fprintf(w, "%% explanation for %s (value %s)\n", lit.Atom, m.Value(lit.Atom))
		for _, line := range m.Explain(lit.Atom) {
			fmt.Fprintln(w, "  "+line)
		}
	}
	return enumErr
}
