// Package ordlog is an ordered logic programming engine: a complete Go
// implementation of "Extending Logic Programming" (Laenens, Saccà, Vermeir,
// SIGMOD 1990).
//
// An ordered logic program is a partially ordered set of modules
// (components), each a logic program whose rules may carry classical
// negation in heads as well as bodies. A component inherits the rules of
// every component above it; contradictions are resolved by overruling
// (a more specific rule wins) and defeating (unordered contradicting rules
// silence each other). The declarative semantics is three-valued: a
// program has a least model, a family of assumption-free models, and
// stable models (the maximal assumption-free ones).
//
// # Quick start
//
//	prog, err := ordlog.Parse(`
//	    module birds {
//	        bird(penguin).  bird(pigeon).
//	        fly(X) :- bird(X).
//	        -ground_animal(X) :- bird(X).
//	    }
//	    module arctic extends birds {
//	        ground_animal(penguin).
//	        -fly(X) :- ground_animal(X).
//	    }
//	`)
//	ctx := context.Background()
//	eng, err := ordlog.NewEngineCtx(ctx, prog.Program, ordlog.Config{})
//	m, err := eng.LeastModelCtx(ctx, "arctic")
//	fmt.Println(m) // {-fly(penguin), ..., fly(pigeon), ...}
//
// The classical semantics the paper subsumes are available through the
// translations OV, EV and ThreeV (§3–§4 of the paper) and through the
// baseline implementations in internal/classical.
//
// # Snapshots and updates
//
// The fact base of an Engine is maintained through immutable versioned
// snapshots. Engine.Update and Engine.Retract assert and remove ground
// facts without rebuilding the engine: each returns a new *Snapshot that
// shares the interned-term storage — and, for every component unaffected
// by the change, the memoised views and least models — with its parent.
// Every Engine query method reads the current snapshot; callers that need
// several queries to agree on one version pin it with Engine.Current and
// query the snapshot directly:
//
//	snap, err := eng.Update(ctx, "birds", facts)
//	m, err := snap.LeastModelCtx(ctx, "arctic") // this version, whatever happens next
//
// # Concurrency
//
// An Engine is safe for concurrent shared use, including concurrent
// updates: writers are serialised among themselves and never block
// readers, and a reader keeps the snapshot it pinned. Per-component views
// and least models are memoised with singleflight semantics.
// Engine.QueryBatchCtx fans independent goals over GOMAXPROCS workers
// against one pinned snapshot, and a large stable-model search fans its
// subtrees out the same way, returning the models in the order the in-line
// search finds them. Returned models are shared and must be treated as
// read-only. See README.md "Concurrency" for the full contract.
package ordlog

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analyze"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/interrupt"
	"repro/internal/parser"
	"repro/internal/stable"
	"repro/internal/transform"
	"repro/internal/wal"
)

// Cancellation sentinels. Every read question (least model, query, proof,
// assumption-free and stable models, consequences, time travel) has one
// entry point, and it takes a context: callers without one pass
// context.Background(). Cancellation and deadlines are honoured at
// cooperative checkpoints; when one fires, the returned error matches
// ErrInterrupted (and also context.Canceled / context.DeadlineExceeded via
// Unwrap). Enumeration entry points return whatever partial models were
// found alongside the error — the same graceful-degradation contract as
// ErrEnumBudget.
var (
	// ErrInterrupted matches any context-induced interruption.
	ErrInterrupted = interrupt.ErrInterrupted
	// ErrEnumBudget reports that stable/assumption-free enumeration
	// exceeded its leaf budget; partial models accompany it.
	ErrEnumBudget = stable.ErrBudget
	// ErrVersionUnknown reports a version never published (ahead of the
	// tip); Engine.AsOfCtx and Tenant.AsOf wrap it.
	ErrVersionUnknown = core.ErrVersionUnknown
	// ErrVersionEvicted reports a version that existed but is no longer
	// reconstructible (no durability, or it predates every checkpoint).
	ErrVersionEvicted = core.ErrVersionEvicted
	// ErrWALCorrupt reports CRC, hash-chain, or checkpoint damage in a
	// durability directory.
	ErrWALCorrupt = wal.ErrCorrupt
)

// IsInterrupted reports whether err records a context interruption.
func IsInterrupted(err error) bool { return interrupt.IsInterrupted(err) }

// Re-exported core types. See the respective internal packages for the
// full method sets.
type (
	// Program is a parsed ordered program.
	Program = ast.OrderedProgram
	// Component is one module of an ordered program.
	Component = ast.Component
	// Rule is a (possibly negative) rule.
	Rule = ast.Rule
	// Literal is an atom or its classical negation.
	Literal = ast.Literal
	// Atom is a predicate applied to terms.
	Atom = ast.Atom
	// Query is a conjunctive goal.
	Query = ast.Query
	// Engine evaluates a grounded ordered program.
	Engine = core.Engine
	// Snapshot is one immutable version of an engine's fact base.
	Snapshot = core.Snapshot
	// Config configures engine construction.
	Config = core.Config
	// Option is a functional engine option (WithEnumBudget, WithTrace,
	// WithDurability, ...) applied on top of a Config by NewEngineCtx.
	Option = core.Option
	// ConfigError reports the invalid Config field that made NewEngineCtx
	// reject a configuration; inspect it with errors.As.
	ConfigError = core.ConfigError
	// Model is a (possibly partial) model in one component.
	Model = core.Model
	// Binding maps query variables to ground terms.
	Binding = core.Binding
	// GroundOptions configures the grounder.
	GroundOptions = ground.Options
	// EnumOptions bounds stable-model enumeration.
	EnumOptions = stable.Options
	// QueryRequest is one unit of Engine.QueryBatchCtx.
	QueryRequest = core.QueryRequest
	// QueryResult is the outcome of one QueryRequest.
	QueryResult = core.QueryResult
	// Consequences holds cautious/brave stable inference results.
	Consequences = core.Consequences
	// Diagnostic is one static-analysis finding.
	Diagnostic = analyze.Diagnostic
	// Value is a three-valued truth value.
	Value = interp.Value
	// ParseResult is a parsed program together with its queries.
	ParseResult = parser.Result
)

// Three-valued truth values with the ordering False < Undef < True.
const (
	False = interp.False
	Undef = interp.Undef
	True  = interp.True
)

// Grounding modes.
const (
	// ModeSmart grounds only relevant instances (the default).
	ModeSmart = ground.ModeSmart
	// ModeFull grounds exhaustively over the whole Herbrand universe.
	ModeFull = ground.ModeFull
)

// Parse parses ordered-program source text: module blocks with extends /
// order declarations, rules, and optional ?- queries.
func Parse(src string) (*ParseResult, error) { return parser.Parse(src) }

// ParseProgram parses source that must not contain queries.
func ParseProgram(src string) (*Program, error) { return parser.ParseProgram(src) }

// ParseFile reads and parses a .olp file.
func ParseFile(path string) (*ParseResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parser.Parse(string(b))
}

// ParseFiles reads several .olp files as one program: module blocks with
// the same name accumulate across files (the parser's reopening rule), and
// queries from all files are concatenated in order. Useful for splitting a
// knowledge base into per-module files.
func ParseFiles(paths ...string) (*ParseResult, error) {
	var src strings.Builder
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		src.Write(b)
		src.WriteByte('\n')
	}
	return parser.Parse(src.String())
}

// ParseRule parses a single clause such as "fly(X) :- bird(X).".
func ParseRule(src string) (*Rule, error) { return parser.ParseRule(src) }

// ParseLiteral parses a single literal such as "-fly(penguin)".
func ParseLiteral(src string) (Literal, error) { return parser.ParseLiteral(src) }

// NewEngineCtx grounds a program and returns an evaluation engine. The
// functional options are applied on top of cfg; an invalid configuration
// is rejected with a *ConfigError. The context interrupts the grounding
// phase.
func NewEngineCtx(ctx context.Context, p *Program, cfg Config, opts ...Option) (*Engine, error) {
	return core.NewEngineCtx(ctx, p, cfg, opts...)
}

// WithEnumBudget returns an Option setting the default leaf budget for
// stable and assumption-free enumeration whenever a call leaves
// EnumOptions.MaxLeaves zero.
func WithEnumBudget(n int) Option { return core.WithEnumBudget(n) }

// WithTrace returns an Option directing one line per engine lifecycle
// event (grounding, updates, least-model computations) to w.
func WithTrace(w io.Writer) Option { return core.WithTrace(w) }

// SyncPolicy selects when the write-ahead log fsyncs: SyncAlways after
// every append (an acknowledged update is on disk), SyncInterval on a
// background cadence (bounded loss window, near-memory throughput).
type SyncPolicy = wal.SyncPolicy

// Sync policies for WithSync.
const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
)

// WithDurability returns an Option attaching a write-ahead log under dir:
// every Update/Retract batch is appended (length-prefixed, CRC-guarded,
// SHA-256 hash-chained) before its snapshot is published, and periodic
// checkpoints bound recovery replay. Restore a directory with Recover.
func WithDurability(dir string) Option { return core.WithDurability(dir) }

// WithCheckpointEvery returns an Option setting the checkpoint cadence (a
// snapshot of the effective program every n logged updates). Requires
// WithDurability.
func WithCheckpointEvery(n int) Option { return core.WithCheckpointEvery(n) }

// WithSync returns an Option selecting the WAL fsync policy. Requires
// WithDurability.
func WithSync(p SyncPolicy) Option { return core.WithSync(p) }

// WithDurableName returns an Option seeding the WAL hash chain with a
// tenant name, isolating histories that share a filesystem. Requires
// WithDurability.
func WithDurableName(name string) Option { return core.WithDurableName(name) }

// WithRotateRecords returns an Option rotating the WAL to a fresh segment
// every n records, bounding per-file size under sustained churn. Requires
// WithDurability; 0 keeps the single-file layout.
func WithRotateRecords(n int) Option { return core.WithRotateRecords(n) }

// WithRotateBytes returns an Option rotating the WAL to a fresh segment
// once the current one reaches n bytes. Requires WithDurability; 0 never
// rotates by size.
func WithRotateBytes(n int64) Option { return core.WithRotateBytes(n) }

// WithKeepCheckpoints returns an Option retaining only the newest n
// checkpoints and pruning WAL segments wholly covered by the survivors,
// bounding the on-disk footprint. AsOf reads below the pruned horizon
// report ErrVersionEvicted. Requires WithDurability; 0 keeps everything.
func WithKeepCheckpoints(n int) Option { return core.WithKeepCheckpoints(n) }

// WithCompactEvery returns an Option compacting the engine's snapshot
// every n incremental updates: the retained update history is collapsed
// to its net effect and dead rule instances are dropped, bounding memory
// under sustained assert/retract churn. 0 disables count-driven
// compaction.
func WithCompactEvery(n int) Option { return core.WithCompactEvery(n) }

// WithCompactRatio returns an Option compacting the snapshot whenever the
// dead-instance fraction of the grounded program reaches r in (0, 1].
// 0 disables ratio-driven compaction.
func WithCompactRatio(r float64) Option { return core.WithCompactRatio(r) }

// Recover rebuilds a durable engine from a directory written by an engine
// constructed with WithDurability: load the newest checkpoint consistent
// with the log, verify the hash chain end to end, fold the WAL suffix past
// the checkpoint into its program, and ground the recovered tip once. See
// Engine.AsOfCtx for time travel over the recovered history.
func Recover(ctx context.Context, dir string, cfg Config, opts ...Option) (*Engine, error) {
	return core.Recover(ctx, dir, cfg, opts...)
}

// ParseFacts parses module-free clauses (typically a bulk fact base) and
// returns them as literals suitable for Engine.Update. Every clause must
// be a ground fact.
func ParseFacts(src string) ([]Literal, error) { return parser.ParseFacts(src) }

// OV builds the ordered version of a seminegative program (§3): a
// closed-world component above the program, capturing the founded and
// stable 3-valued models of classical logic programming.
func OV(name string, rules []*Rule) (*Program, error) { return transform.OV(name, rules) }

// EV builds the extended version (§3): OV plus reflexive rules, capturing
// every 3-valued model.
func EV(name string, rules []*Rule) (*Program, error) { return transform.EV(name, rules) }

// ThreeV builds the 3-level version of a negative program (§4), reading
// negative rules as exceptions to the general seminegative rules.
func ThreeV(rules []*Rule) (*Program, error) { return transform.ThreeV(rules) }

// SingleComponent wraps a rule list as a one-component ordered program.
func SingleComponent(name string, rules []*Rule) *Program {
	return ast.SingleComponent(name, rules)
}

// Analyze runs the static diagnostics of internal/analyze: unsafe
// variables, undefined body predicates, defeat sources, empty components.
func Analyze(p *Program) []Diagnostic { return analyze.Program(p) }

// MergeFacts parses a module-free fact base (see ParseFacts) and appends
// its facts to the named component of an already-parsed program. Call
// before NewEngineCtx; the program is modified in place.
//
// Deprecated: build the engine first and use Engine.Update, which applies
// the facts as an incremental snapshot without mutating the source program
// (mutating a Program after NewEngineCtx has undefined results). MergeFacts
// keeps working for pre-engine bulk loading; ParseFacts converts the same
// source text into the literals Engine.Update takes.
func MergeFacts(p *Program, comp string, src string) error {
	facts, err := parser.ParseFacts(src)
	if err != nil {
		return err
	}
	c := p.Component(comp)
	if c == nil {
		return fmt.Errorf("unknown component %q", comp)
	}
	for _, f := range facts {
		c.AddRule(ast.Fact(f))
	}
	return nil
}
