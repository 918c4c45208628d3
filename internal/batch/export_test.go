// Test-only accessors: methods the tests inspect state with that no
// production code calls.

package batch

// Cap returns the admission bound (0 = unbounded).
func (s *Semaphore) Cap() int {
	if s.slots == nil {
		return 0
	}
	return cap(s.slots)
}
