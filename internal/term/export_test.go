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
