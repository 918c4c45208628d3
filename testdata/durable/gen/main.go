// Command gen writes one format directory of the durable corpus: the
// durability directories a build leaves on disk, beside the text every
// later build must read back from them. Run it from the repository root
// with a directory that does not exist yet:
//
//	go run ./testdata/durable/gen -out testdata/durable/1
//
// It never overwrites: a format change adds a directory, and the old ones
// stay as the build that wrote them left them.
//
// Each tenant <t> gets a durability directory <t>/ and a file <t>.want:
//
//	% head <v>       the version recovery must reach
//	% floor <v>      versions below it were pruned by retention (evicted)
//	% version <v>    then the effective program at v, one section per version
//
// or the single line "% refused" for a directory every reader must refuse
// with wal.ErrCorrupt.
//
//   - alpha: rotated segments (3 records each), a checkpoint every 4
//     writes with 2 kept, so retention pruned a prefix of the log; its
//     facts are the kinds family: Int 1 beside Sym "1", quoted names, a
//     compound and the least int64.
//   - beta: two components, rotated segments (4 records each), every
//     checkpoint kept, and a torn tail: its last write is cut 7 bytes
//     short, as a crash mid-append leaves it.
//   - gamma: checkpoints every 3 writes, the newest at the tip, with one
//     byte of that checkpoint's program flipped so that it still parses and
//     agrees with the log: only the checkpoint's own integrity sum tells.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/wal"
)

// write is one update: assert or retract the facts in comp.
type write struct {
	retract bool
	comp    string
	facts   string
}

type tenant struct {
	name   string
	src    string
	opts   []core.Option
	writes []write
	torn   bool // append one more write, then cut it short
	flip   bool // flip a byte of the newest checkpoint's program
}

var tenants = []tenant{
	{
		name: "alpha",
		src: `module main {
  q(X) :- p(X).
  r(X) :- p(X), -s(X).
  p(1).
  s('1').
}
`,
		opts: []core.Option{core.WithCheckpointEvery(4), core.WithRotateRecords(3), core.WithKeepCheckpoints(2)},
		writes: []write{
			{comp: "main", facts: "p('1')."},
			{comp: "main", facts: "p('a b')."},
			{comp: "main", facts: "p(f(x, 'Y'))."},
			{comp: "main", facts: "p(-9223372036854775808)."},
			{retract: true, comp: "main", facts: "p(1)."},
			{comp: "main", facts: "s(1). p('')."},
			{retract: true, comp: "main", facts: "s('1')."},
			{comp: "main", facts: "p('don\\'t')."},
			{retract: true, comp: "main", facts: "p('a b'). p('1')."},
			{comp: "main", facts: "p(1). p(g(-9223372036854775808))."},
			{retract: true, comp: "main", facts: "p(f(x, 'Y'))."},
			{comp: "main", facts: "s(-9223372036854775808)."},
			{comp: "main", facts: "p('a b')."},
			{retract: true, comp: "main", facts: "s(1)."},
		},
	},
	{
		name: "beta",
		src: `module base {
  bird(tweety).
  bird(pingu).
  fly(X) :- bird(X).
}
module main extends base {
  -fly(X) :- penguin(X).
  penguin(pingu).
}
`,
		opts: []core.Option{core.WithCheckpointEvery(5), core.WithRotateRecords(4)},
		writes: []write{
			{comp: "base", facts: "bird(polly)."},
			{comp: "main", facts: "penguin(polly)."},
			{comp: "base", facts: "bird(kiwi)."},
			{retract: true, comp: "main", facts: "penguin(pingu)."},
			{comp: "main", facts: "penguin(kiwi)."},
			{retract: true, comp: "base", facts: "bird(tweety)."},
			{comp: "base", facts: "bird(tweety). bird(emu)."},
			{retract: true, comp: "main", facts: "penguin(polly)."},
			{comp: "main", facts: "penguin(emu)."},
			{retract: true, comp: "base", facts: "bird(kiwi)."},
			{comp: "main", facts: "penguin(pingu)."},
			{comp: "base", facts: "bird(robin)."},
			// The torn write: logged, then cut short.
			{comp: "base", facts: "bird(wren)."},
		},
		torn: true,
	},
	{
		name: "gamma",
		src:  "module main {\n  seen(X) :- u(X).\n  u(c0).\n}\n",
		opts: []core.Option{core.WithCheckpointEvery(3), core.WithRotateRecords(2)},
		writes: []write{
			{comp: "main", facts: "u(c1)."},
			{comp: "main", facts: "u(c2)."},
			{comp: "main", facts: "u(c3)."},
			{retract: true, comp: "main", facts: "u(c1)."},
			{comp: "main", facts: "u(c4)."},
			{comp: "main", facts: "u(c6)."},
		},
		flip: true,
	},
}

func main() {
	out := flag.String("out", "", "format directory to create (must not exist)")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "usage: go run ./testdata/durable/gen -out <new directory>")
		os.Exit(2)
	}
	if _, err := os.Stat(*out); !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "gen: %s exists (or cannot be checked: %v); a corpus directory is never regenerated\n", *out, err)
		os.Exit(1)
	}
	for _, t := range tenants {
		if err := generate(*out, t); err != nil {
			fmt.Fprintf(os.Stderr, "gen: tenant %s: %v\n", t.name, err)
			os.Exit(1)
		}
	}
}

func generate(out string, t tenant) error {
	ctx := context.Background()
	src, err := parser.ParseProgram(t.src)
	if err != nil {
		return err
	}
	dir := filepath.Join(out, t.name)
	opts := append([]core.Option{core.WithDurability(dir), core.WithDurableName(t.name), core.WithSync(wal.SyncAlways)}, t.opts...)
	eng, err := core.NewEngineCtx(ctx, src, core.Config{}, opts...)
	if err != nil {
		return err
	}
	var want strings.Builder
	programs := []string{}
	record := func(s *core.Snapshot) error {
		p, err := s.EffectiveProgram()
		if err != nil {
			return err
		}
		programs = append(programs, p.String())
		return nil
	}
	if err := record(eng.Current()); err != nil {
		return err
	}
	writes := t.writes
	if t.torn {
		writes = writes[:len(writes)-1]
	}
	apply := func(w write) (*core.Snapshot, error) {
		lits, err := parser.ParseFacts(w.facts)
		if err != nil {
			return nil, err
		}
		if w.retract {
			return eng.Retract(ctx, w.comp, lits)
		}
		return eng.Update(ctx, w.comp, lits)
	}
	for _, w := range writes {
		s, err := apply(w)
		if err != nil {
			return fmt.Errorf("write %+v: %w", w, err)
		}
		if err := record(s); err != nil {
			return err
		}
	}
	head := eng.Current().Version()
	if t.torn {
		if _, err := apply(t.writes[len(t.writes)-1]); err != nil {
			return err
		}
	}
	if err := eng.Close(); err != nil {
		return err
	}
	if t.torn {
		segs, err := wal.ListSegments(dir)
		if err != nil {
			return err
		}
		last := segs[len(segs)-1].Path
		fi, err := os.Stat(last)
		if err != nil {
			return err
		}
		if err := os.Truncate(last, fi.Size()-7); err != nil {
			return err
		}
	}
	d, err := wal.Open(dir, false)
	if err != nil {
		return err
	}
	cps := d.Checkpoints
	if t.flip {
		return flipNewest(out, dir, cps[len(cps)-1])
	}
	floor := cps[0].Version
	fmt.Fprintf(&want, "%% head %d\n%% floor %d\n", head, floor)
	for v, p := range programs {
		fmt.Fprintf(&want, "%% version %d\n%s", v, p)
	}
	return os.WriteFile(filepath.Join(out, t.name+".want"), []byte(want.String()), 0o644)
}

// flipNewest turns u(c6) into u(c7) in the newest checkpoint's program
// text: the JSON and the program still parse and the checkpoint still
// agrees with the log, but its integrity sum no longer matches.
func flipNewest(out, dir string, cp wal.Checkpoint) error {
	path := filepath.Join(dir, fmt.Sprintf("checkpoint-%020d.json", cp.Version))
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	i := bytes.Index(b, []byte("u(c6)"))
	if i < 0 {
		return fmt.Errorf("%s holds no u(c6)", path)
	}
	b[i+3] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, cp.Name+".want"), []byte("% refused\n"), 0o644)
}
