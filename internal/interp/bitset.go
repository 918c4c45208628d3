package interp

import "math/bits"

// Bitset is a fixed-capacity bitset over atom ids.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// NewBitset returns a bitset with capacity for n bits, all clear.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Cap returns the bit capacity.
func (b *Bitset) Cap() int { return b.n }

// Get reports whether bit i is set. Indexes at or beyond the capacity read
// as clear: interpretations are sized when built, and an atom interned
// later (by a snapshot update sharing the atom table) is simply not a
// member, not an out-of-range access.
func (b *Bitset) Get(i int) bool {
	if uint(i) >= uint(b.n) {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (b *Bitset) Clone() *Bitset {
	nb := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(nb.words, b.words)
	return nb
}

// CloneSized returns an independent copy with capacity n: bits at or past
// b's capacity start clear, bits at or past n are dropped.
func (b *Bitset) CloneSized(n int) *Bitset {
	nb := NewBitset(n)
	copy(nb.words, b.words)
	if r := uint(n) & 63; r != 0 && len(nb.words) > 0 {
		nb.words[len(nb.words)-1] &= 1<<r - 1
	}
	return nb
}

// CopyFrom overwrites b with the contents of o (same capacity required).
func (b *Bitset) CopyFrom(o *Bitset) {
	copy(b.words, o.words)
}

// Equal reports whether both bitsets contain exactly the same bits.
func (b *Bitset) Equal(o *Bitset) bool {
	if len(b.words) != len(o.words) {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every set bit of b is set in o.
func (b *Bitset) SubsetOf(o *Bitset) bool {
	for i, w := range b.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// UnionWith sets every bit of o in b.
func (b *Bitset) UnionWith(o *Bitset) {
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// IntersectWith clears every bit of b not set in o.
func (b *Bitset) IntersectWith(o *Bitset) {
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Intersects reports whether b and o share a set bit.
func (b *Bitset) Intersects(o *Bitset) bool {
	for i, w := range b.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Range calls f for every set bit in ascending order; f returning false
// stops the iteration.
func (b *Bitset) Range(f func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !f(wi<<6 + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// Bits returns the indexes of all set bits in ascending order.
func (b *Bitset) Bits() []int {
	out := make([]int, 0, b.Count())
	b.Range(func(i int) bool { out = append(out, i); return true })
	return out
}
