package stable

// SetFanOut forces the enumerator's choice for a test: a search with at
// least minAtoms branch atoms splits over workers goroutines, and
// workers ≤ 1 keeps every search in-line. The returned function restores
// the defaults.
func SetFanOut(workers, minAtoms int) (restore func()) {
	oldWorkers, oldMin := maxWorkers, fanOutMinAtoms
	maxWorkers = func() int { return workers }
	fanOutMinAtoms = minAtoms
	return func() { maxWorkers, fanOutMinAtoms = oldWorkers, oldMin }
}
