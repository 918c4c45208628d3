//go:build unix

package stable_test

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"testing"

	"repro/internal/stable"
)

// BenchmarkFanOutWinMoveCycle measures the fan-out against the in-line
// search at one GOMAXPROCS, on the OV(win-move) cycles B4 runs (cycle n
// branches on n atoms). Legs per size:
//   - auto runs the search as every caller does;
//   - inline keeps it in-line;
//   - fanned splits it over GOMAXPROCS workers whatever its size.
//
// Beside ns/op each leg reports cpu-ms/op, the process's user + system
// CPU time per search: fanned ÷ inline CPU is what a split search costs
// the other requests of a saturated process, the figure fanOutMinAtoms is
// chosen from (EXPERIMENTS.md "One stable-model enumerator").
func BenchmarkFanOutWinMoveCycle(b *testing.B) {
	for _, leg := range []string{"auto", "inline", "fanned"} {
		for _, n := range []int{4, 6, 8, 10, 12} {
			b.Run(fmt.Sprintf("%s/n=%d", leg, n), func(b *testing.B) {
				v := winMoveView(b, n)
				switch leg {
				case "inline":
					defer stable.SetFanOut(1, 0)()
				case "fanned":
					defer stable.SetFanOut(runtime.GOMAXPROCS(0), 0)()
				}
				c0 := cpuTime(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := stable.StableModelsCtx(context.Background(), v, stable.Options{}); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(cpuTime(b)-c0)/1e6/float64(b.N), "cpu-ms/op")
			})
		}
	}
}

// cpuTime returns the process's user + system CPU time in nanoseconds.
func cpuTime(b *testing.B) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
