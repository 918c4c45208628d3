// Golden digests of whole groundings. Dump sorts its lines; these hash the
// atom table in id order and Rules in order (component, head id, body ids,
// source rule index), so a change to the join kernel, the enumeration order
// or the interning order of atoms shows as a digest change. Canonical answer
// order, WAL checkpoints and the cut/cone sub-tables all read those ids, so a
// kernel change must reproduce every digest byte for byte.
package ground

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/oracle/gen"
	"repro/internal/parser"
)

// wantDigests are the digests of every grounding TestGroundDigests takes,
// recorded before the grounder joined over term ids.
var wantDigests = map[string]string{
	"bench/policy-full":               "9b960d196cefc2a11f0384c90573f35eadd7a6f865772e27e71500821d3c336e",
	"bench/reads-full":                "2b3a279bf9ae1b77dcfbad21bab413719ab350bb4e8a13976f45339a5218bb47",
	"bench/reads-path-slice":          "d65c90751939613a54ed98933d23ec284e01268b34f6e99619b252e6bf64dbb1",
	"bench/reads-reach-slice":         "d23e235712312423ffc10e9cae0d614acc34de91b2d983ca8724c57dc0c016c9",
	"corpus/datalog":                  "ed1a60a7745f46bcbd3e19ae405b69a185c208be7f0b9b0c83e75a464b27aef7",
	"corpus/ordered":                  "f9883acb11274337b2e40225b162087f82b68245b513a9ac48df397cd0cc2bf4",
	"full/defeating.olp":              "e6d8d170954252a365b8bf1c334321d2773756a3a48c90f710618495574adf69",
	"full/family.olp":                 "5e0a1ca8d79379800a5921541d8a600e673f4f7a374e6e3c22db859681b5919e",
	"full/loan.olp":                   "f9c0c9c8c4bc071f3c0a45da6437bcc4f890225b654aa17966d7d8d5d583f521",
	"full/peano.olp":                  "05c1a02fb39fa28e1003df043f654f3b6320960fe3fb6c8be0446d1648f25c7e",
	"full/penguin.olp":                "46ef518f6741c31d5ed9d539ef661e87cfe63c70fbe6057163f215cc55b704fd",
	"full/shop.olp":                   "d3a2b22537dc77805db299ad49683552ea3e1c7ec442cc3f46d5f29bb668bef0",
	"full/winmove.olp":                "0a1856d4fda01fba5ec7795f873c303155c64fb262a265940c22f694616ab3e4",
	"smart/defeating.olp":             "e6d8d170954252a365b8bf1c334321d2773756a3a48c90f710618495574adf69",
	"smart/family.olp":                "3ed210df0bf249df470981fd80d9907bba551d94b76613823b86b882a3248a43",
	"smart/loan.olp":                  "bfa29c5d64e7f7b28c0687608e8012234c1949cb91b87d7bb636d3b75a81b08c",
	"smart/peano.olp":                 "944a9e1f8d777974a96c3db75b2fa115f3351419c551da3e19b3b91f5017d264",
	"smart/penguin.olp":               "46ef518f6741c31d5ed9d539ef661e87cfe63c70fbe6057163f215cc55b704fd",
	"smart/shop.olp":                  "0b28e7c9169642ba8bbc547dd44fd97c59d9c8f485e17f23912274c69fd06575",
	"smart/winmove.olp":               "cf9698c35a2ac40f4bcfcb732fe89cb17e5d03b02f834fb4bb1e08f740306835",
	"updates/0-ground":                "ba9ae6353ab04b259e2d96c346282196e01d8fa0bc945ee323945eec2868fd9d",
	"updates/1-assert-fresh":          "b3a9e5d745ef677697bc5a4e2d942b1f61aea6f75c7f71a77132861c6fbffce4",
	"updates/2-assert-kb":             "6ea3b9b70f33aa3d4bf2cca2c4237b0479e72ac4b66e77f11feec0764cbe0480",
	"updates/3-retract-kb":            "6049a3d602f69b700391d9688f396d36fbe42de1993d2403914584326dd84e3f",
	"updates/4-reassert-kb":           "534ae62503c7a4995815154fb24084c14b97a04404f8394cfd20c0f1d9fd9a74",
	"updates/5-retract-last-constant": "b14268a5ff516696951f11f666cb8bd968bc0d4ca37a38d0d80d7bc5c8619624",

	// Facts of one predicate before and after a rule deriving it, in two
	// components, through the update script and a reground.
	"interleaved/0-ground":                "a538930550e19d67e9a1a2bd9e0f4963086cb5d6835ab4bc5a91d5ba0e86702e",
	"interleaved/1-assert-fresh":          "79674adbe5f2f579640d0d3f72785b2b1d1d947ac7bfc5830e57adc5f9baeb89",
	"interleaved/2-assert-kb":             "e27d5db22cd42384d701447823955e9846de85ab330dc71d1266dd6e69476b21",
	"interleaved/3-retract-kb":            "10a3a75d8dbb3bdeaa40a26936019f5309e619e52ac09bdb96b492013091c7a6",
	"interleaved/4-reassert-kb":           "6ee7ed2372365cdd540c01fbef9115c902d8b76719a3c67312fb0898d5efcb3a",
	"interleaved/5-retract-last-constant": "9df8210a0fd7bcf0c6441cc5bad5034061073d5d34325ee8cc00b381526c1fa8",
	"interleaved/6-reground":              "f1590fdcfa635b2766e93ece55dedebceced02c03ff9cfc2c7a2baa8b2c1e78a",
}

// writeGroundDigest folds the grounding into h: universe, atom table in id
// order, then every instance in Rules order.
func writeGroundDigest(h hash.Hash, gp *Program) {
	srcIdx := make(map[*ast.Rule]int)
	for _, c := range gp.Src.Components {
		for _, r := range c.Rules {
			srcIdx[r] = len(srcIdx)
		}
	}
	for _, t := range gp.Universe {
		fmt.Fprintf(h, "u %s\n", t)
	}
	for id, n := 0, gp.Tab.Len(); id < n; id++ {
		fmt.Fprintf(h, "a%d %s\n", id, gp.Tab.Atom(interp.AtomID(id)))
	}
	for _, r := range gp.rules() {
		fmt.Fprintf(h, "r m%d %d <-", r.Comp, r.Head)
		for _, l := range r.Body {
			fmt.Fprintf(h, " %d", l)
		}
		if si, ok := srcIdx[r.Src]; ok {
			fmt.Fprintf(h, " @%d\n", si)
		} else {
			fmt.Fprintf(h, " @%s\n", r.Src) // an asserted fact
		}
	}
}

func groundDigest(gp *Program) string {
	h := sha256.New()
	writeGroundDigest(h, gp)
	return hex.EncodeToString(h.Sum(nil))
}

// digestOf grounds p and digests the result, or the error.
func digestOf(p *ast.OrderedProgram, opts Options) string {
	gp, err := GroundCtx(context.Background(), p, opts)
	if err != nil {
		sum := sha256.Sum256([]byte("error: " + err.Error()))
		return hex.EncodeToString(sum[:])
	}
	return groundDigest(gp)
}

// gotDigests computes every digest TestGroundDigests checks.
func gotDigests(t *testing.T) map[string]string {
	t.Helper()
	got := make(map[string]string)

	// The figure programs, peano.olp's function symbols among them, in both
	// modes (a budget keeps full mode finite; its error digests too).
	files, err := filepath.Glob("../../testdata/*.olp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no programs under testdata: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		got["smart/"+filepath.Base(f)] = digestOf(res.Program, DefaultOptions())
		full := DefaultOptions()
		full.Mode = ModeFull
		full.MaxInstances = 1 << 16
		full.MaxAtoms = 1 << 16
		got["full/"+filepath.Base(f)] = digestOf(res.Program, full)
	}

	// The seeded corpus: one digest per family, over its programs in order.
	corpus := map[string]func(seed int64) *ast.OrderedProgram{
		"ordered": func(seed int64) *ast.OrderedProgram {
			rng := rand.New(rand.NewSource(seed))
			return gen.RandomOrdered(rng, 1+rng.Intn(4), gen.RandomConfig{
				Atoms: 3 + rng.Intn(5), Rules: 5 + rng.Intn(10), MaxBody: 3, NegHeads: true, NegBody: true,
			})
		},
		"datalog": func(seed int64) *ast.OrderedProgram {
			rng := rand.New(rand.NewSource(seed + 1_000))
			return gen.RandomOrderedDatalog(rng, 1+rng.Intn(3), 2+rng.Intn(3))
		},
	}
	for name, gen := range corpus {
		h := sha256.New()
		for seed := int64(0); seed < 100; seed++ {
			fmt.Fprintf(h, "seed %d %s\n", seed, digestOf(gen(seed), DefaultOptions()))
		}
		got["corpus/"+name] = hex.EncodeToString(h.Sum(nil))
	}

	// The four groundings the serving benchmark performs.
	for _, sh := range benchShapes(t) {
		if testing.Short() && sh.name == "reads-full" {
			continue
		}
		opts := DefaultOptions()
		opts.Goal = sh.goal
		got["bench/"+sh.name] = digestOf(sh.prog, opts)
	}

	// A scripted update sequence on the policy program: a fresh-constant
	// assert, a kb-constant toggle (assert, retract, re-assert) and the
	// last-constant retract that must fall back.
	updateScript(t, got, "updates/", policyProgram(t, 1000), "exc", []scriptStep{
		{"1-assert-fresh", "bad(k0)", false},
		{"2-assert-kb", "bad(c7)", false},
		{"3-retract-kb", "bad(c7)", true},
		{"4-reassert-kb", "bad(c7)", false},
	}, "bad(k0)", "5-retract-last-constant")

	// Facts of one predicate written both before and after a rule deriving
	// it, in two components: round 0 of the possible-atom fixpoint and the
	// fireable pass must interleave them with the rule exactly as written.
	// The same update script runs on it, and the program the asserts leave
	// is then grounded from scratch, with the asserted facts at the end of
	// their component as the engine's rebuild writes them.
	p := parse(t, interleavedSource)
	updateScript(t, got, "interleaved/", p, "exc", []scriptStep{
		{"1-assert-fresh", "p(k1)", false},
		{"2-assert-kb", "bad(c1)", false},
		{"3-retract-kb", "bad(c1)", true},
		{"4-reassert-kb", "bad(c1)", false},
	}, "p(k1)", "5-retract-last-constant")
	exc, _ := p.ComponentIndex("exc")
	re := ast.NewOrderedProgram()
	for i, c := range p.Components {
		rules := append([]*ast.Rule(nil), c.Rules...)
		if i == exc {
			for _, l := range goalLits(t, "p(k1)", "bad(c1)") {
				rules = append(rules, ast.Fact(l))
			}
		}
		if err := re.AddComponent(&ast.Component{Name: c.Name, Rules: rules}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range p.Edges {
		if err := re.AddEdge(e.Child, e.Parent); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	got["interleaved/6-reground"] = digestOf(re, DefaultOptions())
	return got
}

// interleavedSource has facts of p before and after the rule deriving p in
// both of its components, with the facts that rule reads written before it:
// round 0 derives p tuples between the written ones.
const interleavedSource = `
module kb {
  p(c1). q(c4). q(c1).
  p(X) :- q(X).
  p(c3). p(c2).
  r(X) :- p(X).
}
module exc extends kb {
  s(c7). p(c5).
  p(X) :- s(X).
  p(c6). s(c2).
  -r(X) :- bad(X).
  bad(c3).
}
`

// scriptStep is one update of an update script: a fact asserted into, or
// retracted from, the script's component.
type scriptStep struct {
	name, fact string
	retract    bool
}

// updateScript grounds p, runs the steps against component comp, digesting
// the program under prefix after the grounding and after every step, then
// retracts lastFact, which must take the last-constant fallback, and
// digests that as lastName.
func updateScript(t *testing.T, got map[string]string, prefix string, p *ast.OrderedProgram, comp string, steps []scriptStep, lastFact, lastName string) {
	t.Helper()
	gp, err := GroundCtx(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ci, _ := p.ComponentIndex(comp)
	ctx := context.Background()
	step := func(name string, detail any) {
		h := sha256.New()
		fmt.Fprintf(h, "%+v\n", detail)
		writeGroundDigest(h, gp)
		got[prefix+name] = hex.EncodeToString(h.Sum(nil))
	}
	step("0-ground", nil)
	for _, s := range steps {
		if s.retract {
			gone, err := gp.RetractFacts(ci, goalLits(t, s.fact))
			if err != nil {
				t.Fatalf("%s%s: %v", prefix, s.name, err)
			}
			step(s.name, gone)
			continue
		}
		d, err := gp.AssertFacts(ctx, ci, goalLits(t, s.fact))
		if err != nil {
			t.Fatalf("%s%s: %v", prefix, s.name, err)
		}
		step(s.name, *d)
	}
	_, err = gp.RetractFacts(ci, goalLits(t, lastFact))
	if !errors.Is(err, ErrNeedsReground) || RegroundReason(err) != "last-constant" {
		t.Fatalf("%sretract of %s: err = %v, want the last-constant fallback", prefix, lastFact, err)
	}
	step(lastName, RegroundReason(err))
}

// TestGroundDigests: every grounding hashes to the digest recorded before
// the kernel moved onto term ids.
func TestGroundDigests(t *testing.T) {
	got := gotDigests(t)
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		want, ok := wantDigests[n]
		if !ok {
			t.Errorf("%q: no recorded digest (got %s)", n, got[n])
			continue
		}
		if got[n] != want {
			t.Errorf("%s: digest %s, want %s", n, got[n], want)
		}
	}
	for n := range wantDigests {
		if _, ok := got[n]; !ok && !(testing.Short() && n == "bench/reads-full") {
			t.Errorf("%q: recorded digest not computed", n)
		}
	}
}
