// Test-only accessors: methods the tests inspect state with that no
// production code calls.

package interp

import (
	"sort"

	"repro/internal/ast"
)

// DifferenceWith clears every bit of b that is set in o.
func (b *Bitset) DifferenceWith(o *Bitset) {
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
}

// Empty reports whether no bit is set.
func (b *Bitset) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Preds returns all predicate keys with at least one interned atom,
// sorted by name then arity.
func (t *Table) Preds() []ast.PredKey {
	t.mu.RLock()
	defer t.mu.RUnlock()
	keys := make([]ast.PredKey, 0, len(t.preds))
	for k := range t.preds {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Name != keys[j].Name {
			return keys[i].Name < keys[j].Name
		}
		return keys[i].Arity < keys[j].Arity
	})
	return keys
}
