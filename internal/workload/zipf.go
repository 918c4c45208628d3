package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Zipf draws ranks from a Zipf(s) distribution over {0, ..., n-1}:
// P(k) ∝ 1/(k+1)^s. Rank 0 is the most popular item; the serving load
// harness uses one generator for tenant popularity and one for goal
// popularity, so a skewed workload hammers a few hot tenants and goals
// the way real multi-tenant traffic does.
//
// Unlike math/rand.Zipf this accepts any skew s >= 0 (s = 0 is uniform;
// measured serving skews typically sit in 0.9–1.3, below the s > 1 floor
// the standard library insists on) and draws by binary search over a
// precomputed CDF: O(log n) per draw, no rejection loop, fully
// deterministic for a fixed rand.Rand seed.
//
// A Zipf is not safe for concurrent use — it owns its *rand.Rand. Give
// each load-generator worker its own.
type Zipf struct {
	rng *rand.Rand
	s   float64
	cdf []float64 // cdf[k] = P(rank <= k), cdf[n-1] == 1
}

// NewZipf returns a generator over {0, ..., n-1} with skew s >= 0, drawing
// randomness from rng. It panics on n <= 0, s < 0 or a nil rng — the
// callers are harness binaries and tests, where a loud failure beats a
// misconfigured benchmark.
func NewZipf(rng *rand.Rand, s float64, n int) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("workload: NewZipf n = %d, want > 0", n))
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		panic(fmt.Sprintf("workload: NewZipf s = %v, want finite >= 0", s))
	}
	if rng == nil {
		panic("workload: NewZipf needs a rand.Rand")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1 // pin the top against float round-off
	return &Zipf{rng: rng, s: s, cdf: cdf}
}

// Next draws one rank in [0, N()).
func (z *Zipf) Next() int {
	// SearchFloat64s returns the least k with cdf[k] >= u; u < 1 and
	// cdf[n-1] == 1 keep the result in range.
	return sort.SearchFloat64s(z.cdf, z.rng.Float64())
}

// Prob returns the exact probability of rank k, for chi-square checks and
// reporting.
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= len(z.cdf) {
		return 0
	}
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}
