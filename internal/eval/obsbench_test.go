package eval_test

import (
	"context"
	"testing"

	"repro/internal/ground"
	"repro/internal/obs"
	"repro/internal/oracle/naive"
	"repro/internal/transform"
	"repro/internal/workload"
)

func benchLeast(b *testing.B, on bool) {
	ov, err := transform.OV("c", workload.AncestorChain(32))
	if err != nil {
		b.Fatal(err)
	}
	g, err := ground.GroundCtx(context.Background(), ov, ground.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	v, err := naive.NewViewByName(g, "c")
	if err != nil {
		b.Fatal(err)
	}
	obs.SetEnabled(on)
	defer obs.SetEnabled(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.LeastModelCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeastObsOff(b *testing.B) { benchLeast(b, false) }
func BenchmarkLeastObsOn(b *testing.B)  { benchLeast(b, true) }
