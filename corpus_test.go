package ordlog_test

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	ordlog "repro"
	"repro/internal/ground"
)

// TestCorpus runs every testdata program through both grounding modes:
// parse, validate, ground, compute the least model in the default
// component, answer the embedded queries, and verify the least model is
// an assumption-free model. A regression sweep over realistic programs.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/*.olp")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("corpus too small: %v", files)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			res, err := ordlog.ParseFile(path)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for _, mode := range []ground.Mode{ordlog.ModeSmart, ordlog.ModeFull} {
				cfg := ordlog.Config{}
				cfg.Ground = ground.DefaultOptions()
				cfg.Ground.Mode = mode
				eng, err := ordlog.NewEngineCtx(context.Background(), res.Program, cfg)
				if err != nil {
					t.Fatalf("mode %v: engine: %v", mode, err)
				}
				m, err := eng.LeastModelCtx(context.Background(), "")
				if err != nil {
					t.Fatalf("mode %v: least: %v", mode, err)
				}
				if !eng.CheckAssumptionFree(m) {
					t.Errorf("mode %v: least model not assumption free", mode)
				}
				for _, q := range res.Queries {
					m.Query(q) // must not panic; answer counts are mode-relative
				}
			}
		})
	}
}

// TestCorpusFormatterStable: olpfmt's canonical form is a fixpoint of
// itself for every corpus program.
func TestCorpusFormatterStable(t *testing.T) {
	files, _ := filepath.Glob("testdata/*.olp")
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ordlog.Parse(string(b))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		once := res.Program.String()
		res2, err := ordlog.Parse(once)
		if err != nil {
			t.Fatalf("%s: reparse: %v", path, err)
		}
		if twice := res2.Program.String(); once != twice {
			t.Errorf("%s: formatter not idempotent", path)
		}
	}
}

// TestCorpusKnownAnswers pins a few query answers across the corpus.
func TestCorpusKnownAnswers(t *testing.T) {
	cases := []struct {
		file  string
		comp  string
		query string
		want  []string // sorted first-variable bindings
	}{
		{"testdata/family.olp", "main", "?- anc(ann, X).", []string{"bob", "carol", "dave", "eve"}},
		{"testdata/penguin.olp", "arctic", "?- fly(X).", []string{"pigeon"}},
		{"testdata/shop.olp", "shop", "?- price(vase, P).", []string{"150"}},
	}
	for _, c := range cases {
		res, err := ordlog.ParseFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := ordlog.NewEngineCtx(context.Background(), res.Program, ordlog.Config{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := eng.LeastModelCtx(context.Background(), c.comp)
		if err != nil {
			t.Fatal(err)
		}
		qres, err := ordlog.Parse(c.query)
		if err != nil {
			t.Fatal(err)
		}
		q := qres.Queries[0]
		var got []string
		for _, b := range m.Query(q) {
			got = append(got, b[q.Vars()[0].Name].String())
		}
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("%s %s: answers = %v, want %v", c.file, c.query, got, c.want)
		}
	}
}
