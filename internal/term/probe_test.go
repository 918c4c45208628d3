package term_test

import (
	"context"
	"testing"

	"repro/internal/ground"
	"repro/internal/interp"
	"repro/internal/oracle/gen"
	"repro/internal/parser"
	"repro/internal/term"
)

// TestAtomIndexProbeLength: on the atom keys of the reads tenant's and the
// policy tenant's full groundings (reads-full, policy-full), added in atom
// id order, a successful lookup visits a bounded mean number of slots at
// the load the index grows to. The atom table hashes a key — predicate
// symbol id, then argument ids — with term.HashIDs, so this is its index;
// a hash or spread whose top bits cluster lengthens every probe run. On
// the raw top bits of the FNV-1a hash, policy-full read 3.75. (The bounds
// are the measured 1.67 and 1.61 plus 10 %.)
func TestAtomIndexProbeLength(t *testing.T) {
	for _, c := range []struct {
		name, src string
		maxMean   float64
	}{
		{"reads-full", gen.ReadsSource(400, 100), 1.84},
		{"policy-full", gen.PolicySource(1000), 1.77},
	} {
		p, err := parser.ParseProgram(c.src)
		if err != nil {
			t.Fatal(err)
		}
		gp, err := ground.GroundCtx(context.Background(), p, ground.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		n := gp.Tab.Len()
		hash := func(id int32) uint64 { return term.HashIDs(term.HashSeed, gp.Tab.Key(interp.AtomID(id))) }
		var x term.Index
		for id := int32(0); int(id) < n; id++ {
			x.Add(hash(id), hash)
		}
		if mean := x.MeanProbe(hash); mean > c.maxMean {
			t.Errorf("%s, %d atoms: a successful lookup visits %.3f slots on average, want <= %.2f", c.name, n, mean, c.maxMean)
		}
	}
}
