package transform_test

import (
	"strings"
	"testing"

	"repro/internal/oracle/parsetest"
	"repro/internal/transform"
)

func TestOVStructure(t *testing.T) {
	rules := parsetest.MustParseProgram("anc(X, Y) :- parent(X, Y).\nparent(a, b).\n").Components[0].Rules
	ov, err := transform.OV("c", rules)
	if err != nil {
		t.Fatal(err)
	}
	if len(ov.Components) != 2 {
		t.Fatalf("OV has %d components", len(ov.Components))
	}
	cwa := ov.Component(transform.CWAName)
	if cwa == nil {
		t.Fatal("cwa component missing")
	}
	// One universal negative fact per predicate (anc/2, parent/2).
	if len(cwa.Rules) != 2 {
		t.Errorf("cwa has %d rules, want 2", len(cwa.Rules))
	}
	for _, r := range cwa.Rules {
		if !r.Head.Neg || !r.IsFact() {
			t.Errorf("cwa rule %s is not a negative fact", r)
		}
	}
	ic, _ := ov.ComponentIndex("c")
	icwa, _ := ov.ComponentIndex(transform.CWAName)
	if !ov.Less(ic, icwa) {
		t.Error("c < cwa missing")
	}
	if n := len(ov.Component("c").Rules); n != 2 {
		t.Errorf("program component has %d rules, want 2", n)
	}
}

func TestOVRejectsNegativeHeads(t *testing.T) {
	rules := parsetest.MustParseProgram("-p(a).\n").Components[0].Rules
	if _, err := transform.OV("c", rules); err == nil {
		t.Error("OV accepted a negative program")
	}
	if _, err := transform.EV("c", rules); err == nil {
		t.Error("EV accepted a negative program")
	}
}

func TestEVAddsReflexiveRules(t *testing.T) {
	rules := parsetest.MustParseProgram("p(a).\nq(X) :- p(X).\n").Components[0].Rules
	ev, err := transform.EV("c", rules)
	if err != nil {
		t.Fatal(err)
	}
	c := ev.Component("c")
	reflexive := 0
	for _, r := range c.Rules {
		if len(r.Body) == 1 && !r.Head.Neg && r.Head.Equal(r.Body[0]) {
			reflexive++
		}
	}
	if reflexive != 2 { // one per predicate: p/1, q/1
		t.Errorf("EV added %d reflexive rules, want 2", reflexive)
	}
	if len(c.Rules) != len(rules)+2 {
		t.Errorf("EV component has %d rules", len(c.Rules))
	}
}

func TestThreeVStructure(t *testing.T) {
	rules := parsetest.MustParseProgram(`
colored(X) :- color(X).
-colored(X) :- ugly(X).
color(red).
ugly(red).
`).Components[0].Rules
	tv, err := transform.ThreeV(rules)
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.Components) != 3 {
		t.Fatalf("3V has %d components", len(tv.Components))
	}
	exc := tv.Component(transform.ExceptionsName)
	gen := tv.Component(transform.GeneralName)
	cwa := tv.Component(transform.CWAName)
	if exc == nil || gen == nil || cwa == nil {
		t.Fatal("3V components missing")
	}
	// exceptions: exactly the negative rules.
	if len(exc.Rules) != 1 || !exc.Rules[0].Head.Neg {
		t.Errorf("exceptions = %v", exc.Rules)
	}
	// general: 3 seminegative rules + 3 reflexive (colored, color, ugly).
	if len(gen.Rules) != 6 {
		t.Errorf("general has %d rules, want 6", len(gen.Rules))
	}
	// cwa: one universal negation per predicate.
	if len(cwa.Rules) != 3 {
		t.Errorf("cwa has %d rules, want 3", len(cwa.Rules))
	}
	// Order: exceptions < general < cwa, exceptions < cwa.
	ie, _ := tv.ComponentIndex(transform.ExceptionsName)
	ig, _ := tv.ComponentIndex(transform.GeneralName)
	ic, _ := tv.ComponentIndex(transform.CWAName)
	if !tv.Less(ie, ig) || !tv.Less(ig, ic) || !tv.Less(ie, ic) {
		t.Error("3V order edges wrong")
	}
}

func TestOVNameCollision(t *testing.T) {
	rules := parsetest.MustParseProgram("p(a).\n").Components[0].Rules
	ov, err := transform.OV("cwa", rules) // user component already named cwa
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, 2)
	for _, c := range ov.Components {
		names = append(names, c.Name)
	}
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "cwa") || !strings.Contains(joined, "cwax") {
		t.Errorf("collision not resolved: %v", names)
	}
}

func TestFlattenSingle(t *testing.T) {
	p := parsetest.MustParseProgram("a.\nb.\n")
	rules, err := transform.FlattenSingle(p)
	if err != nil || len(rules) != 2 {
		t.Errorf("FlattenSingle = %v, %v", rules, err)
	}
	multi := parsetest.MustParseProgram("module a { x. }\nmodule b { y. }\n")
	if _, err := transform.FlattenSingle(multi); err == nil {
		t.Error("FlattenSingle accepted a multi-component program")
	}
}

// TestOVSizePolynomial: the paper notes the reduced OV encoding is
// polynomially bounded in the size of C: the CWA component has one rule
// per predicate regardless of the data size.
func TestOVSizePolynomial(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		sb.WriteString("e(c")
		sb.WriteByte(byte('0' + i%10))
		sb.WriteString(", d")
		sb.WriteByte(byte('0' + i/10))
		sb.WriteString(").\n")
	}
	rules := parsetest.MustParseProgram(sb.String()).Components[0].Rules
	ov, err := transform.OV("c", rules)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ov.Component(transform.CWAName).Rules); n != 1 {
		t.Errorf("cwa rules = %d, want 1 (one per predicate)", n)
	}
}
