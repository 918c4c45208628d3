// Test-only accessors: methods the tests inspect state with that no
// production code calls.

package workload

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Skew returns the generator's s parameter.
func (z *Zipf) Skew() float64 { return z.s }
