// Test-only accessors: methods the tests inspect state with that no
// production code calls.

package term

// Len returns the number of interned terms.
func (t *Table) Len() int {
	t.mu.RLock()
	n := len(t.terms)
	t.mu.RUnlock()
	return n
}

// MeanProbe returns the mean number of slots a successful lookup visits:
// for each id, the slots from its hash's home slot up to and including
// its own. hash returns an id's key hash.
func (x *Index) MeanProbe(hash func(id int32) uint64) float64 {
	if x.n == 0 {
		return 0
	}
	mask := uint32(len(x.slots) - 1)
	visited := 0
	for id := int32(0); id < x.n; id++ {
		i := x.home(spread(hash(id)))
		for visited++; x.slots[i]&(1<<x.k-1) != uint32(id)+1; visited++ {
			i = (i + 1) & mask
		}
	}
	return float64(visited) / float64(x.n)
}
