package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/serve"
	"repro/internal/unify"
	"repro/internal/wal"
)

// refModel is the reference the goal-directed daemon is checked against:
// the least model of a second, non-goal-directed engine over the same
// program, indexed once by predicate and sign. Snapshot.QueryCtx would
// rebuild and sort that index for every goal (tens of milliseconds on the
// full model), which a sweep of hundreds of distinct goals cannot afford;
// query enumerates bindings in the order Model.Query does — canonically
// sorted candidates, literals left to right — so the rendering through
// core.BindingsJSON is byte-comparable.
type refModel struct {
	index map[litKey][]ast.Atom
}

type litKey struct {
	pred ast.PredKey
	neg  bool
}

func newRefModel(ctx context.Context, source, comp string) (*refModel, error) {
	res, err := parser.Parse(source)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngineCtx(ctx, res.Program, core.Config{})
	if err != nil {
		return nil, err
	}
	m, err := eng.LeastModelCtx(ctx, comp)
	if err != nil {
		return nil, err
	}
	ref := &refModel{index: make(map[litKey][]ast.Atom)}
	for _, l := range m.Literals() {
		k := litKey{l.Atom.Key(), l.Neg}
		ref.index[k] = append(ref.index[k], l.Atom)
	}
	for _, atoms := range ref.index {
		sort.Slice(atoms, func(i, j int) bool { return ast.CompareAtoms(atoms[i], atoms[j]) < 0 })
	}
	return ref, nil
}

func (m *refModel) query(q ast.Query) []core.Binding {
	var out []core.Binding
	seen := make(map[string]bool)
	vars := q.Vars()
	s := unify.NewSubst()
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Body) {
			bind := make(core.Binding, len(vars))
			sig := ""
			for _, v := range vars {
				t := s.Apply(v)
				bind[v.Name] = t
				sig += "\x00" + t.String()
			}
			if !seen[sig] {
				seen[sig] = true
				out = append(out, bind)
			}
			return
		}
		l := q.Body[i]
		for _, cand := range m.index[litKey{l.Atom.Key(), l.Neg}] {
			mark := s.Mark()
			if unify.MatchAtoms(s, l.Atom, cand) {
				rec(i + 1)
			}
			s.Undo(mark)
		}
	}
	rec(0)
	return out
}

// checkReads compares, for every goal the run asked, the daemon's answer
// with the reference model's, byte for byte in core.BindingsJSON's
// rendering. A mismatch counts as one failed op. It returns the number of
// goals checked.
func checkReads(ctx context.Context, c *client) (int, error) {
	ref, err := newRefModel(ctx, c.s.source, c.s.comp)
	if err != nil {
		return 0, fmt.Errorf("reference engine: %w", err)
	}
	checked := 0
	for g, body := range c.canon {
		if body == nil {
			continue
		}
		checked++
		res, err := parser.Parse("?- " + c.s.goals[g] + ".")
		if err != nil {
			return checked, fmt.Errorf("goal %q: %w", c.s.goals[g], err)
		}
		q := res.Queries[0]
		want, err := core.BindingsJSON(q, ref.query(q))
		if err != nil {
			return checked, err
		}
		var resp struct {
			Query   string              `json:"query"`
			Answers []map[string]string `json:"answers"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			c.fail("query %s: %v", c.s.goals[g], err)
			continue
		}
		if resp.Answers == nil {
			resp.Answers = []map[string]string{}
		}
		got, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			return checked, err
		}
		if !bytes.Equal(got, want) {
			c.fail("query %s: answers differ from the non-goal-directed reference (%d bytes vs %d)", c.s.goals[g], len(got), len(want))
		}
	}
	return checked, nil
}

// roundTrip is the durability check that ends a write workload: close the
// daemon, verify the WAL directory offline, recover it into a fresh daemon
// and require the same version and the same -ok(X) answer as before the
// close and as the harness's own live set.
func roundTrip(ctx context.Context, d *serve.Daemon, c *client, cfg serve.Config) error {
	const rangeGoal = "-ok(X)"
	code, before := c.queryRaw(rangeGoal)
	if code != http.StatusOK {
		return fmt.Errorf("final range read: HTTP %d", code)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("close daemon: %w", err)
	}
	vr, err := wal.VerifyDir(filepath.Join(cfg.DataDir, c.s.tenant))
	if err != nil {
		return fmt.Errorf("wal verify: %w", err)
	}
	if vr.Version != c.sh.version {
		return fmt.Errorf("wal verify: chain tip at v%d, harness acked v%d", vr.Version, c.sh.version)
	}
	d2 := serve.New(cfg)
	defer d2.Close()
	if _, err := d2.RecoverTenants(ctx); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	c2 := newClient(d2.Handler(), c.s, c.sh)
	code, after := c2.queryRaw(rangeGoal)
	if code != http.StatusOK {
		return fmt.Errorf("range read after recovery: HTTP %d", code)
	}
	if !bytes.Equal(before, after) {
		return fmt.Errorf("recovered daemon answers %s differently (version or bindings changed)", rangeGoal)
	}
	rows, fp := 0, uint64(0)
	eachBinding(after, "X", func(v []byte) { rows++; fp += constHash(v) })
	if rows != c.sh.count || fp != c.sh.fp {
		return fmt.Errorf("recovered %s has %d rows, live set has %d", rangeGoal, rows, c.sh.count)
	}
	return nil
}
