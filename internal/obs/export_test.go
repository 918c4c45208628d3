// Test-only accessors: methods the tests inspect state with that no
// production code calls.

package obs

// Get returns the value of the first field with the given key, or nil.
func (e Event) Get(key string) any {
	for _, f := range e.Fields {
		if f.Key == key {
			return f.Val
		}
	}
	return nil
}

// Max raises the gauge to n if n is larger.
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}
