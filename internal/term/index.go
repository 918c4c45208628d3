package term

// Index is a hash index over dense ids: the caller keeps one key per id,
// numbered 0, 1, 2, … in insertion order, and the index finds the ids
// whose key has a given 64-bit hash. It is the dedup set of the atom
// table, of every storage relation and of the grounder's instances.
//
// The index keeps no key and no pointer, only one uint32 slot per table
// entry: a power-of-two table with linear probing, at most three quarters
// full. With 2^k slots, a slot's low k bits hold id+1 (0: empty; the load
// bound keeps every id+1 below 2^k) and its other 32−k bits a fragment of
// the hash, so a probe compares keys only on a fragment match. Both come
// from the hash's Fibonacci spread (spread): the home slot is its top k
// bits and the fragment the 32−k bits below them. Growth re-places every
// id from its key's hash, which the caller recomputes (rehash): slots
// keep too few bits of the hash to rebuild it.
//
// The zero value is an empty index. An Index is not safe for concurrent
// use; its owner's lock guards it.
type Index struct {
	slots []uint32
	k     uint8 // len(slots) == 1<<k once allocated
	n     int32
}

// emptySlots is the table an unallocated index probes: one empty slot.
var emptySlots = []uint32{0}

// Len returns the number of ids added.
func (x *Index) Len() int { return int(x.n) }

// Probe is a lookup in progress: Next yields the candidate ids for a hash,
// those whose slot carries its fragment, in probe order. A Probe is
// invalidated by the next Add.
type Probe struct {
	slots          []uint32
	i, mask        uint32
	tag, fragShift uint32
}

// Probe starts a lookup of the ids whose key hashes to h.
func (x *Index) Probe(h uint64) Probe {
	slots := x.slots
	if slots == nil {
		slots = emptySlots
	}
	top := spread(h)
	return Probe{slots: slots, i: x.home(top), mask: uint32(len(slots) - 1), tag: top << x.k, fragShift: uint32(x.k)}
}

// spread returns the top 32 bits of h times 2^64/φ (Fibonacci hashing),
// which depend on every bit of h. The FNV-1a hashes of keys that differ
// in one small id cluster in their own top bits: on the policy tenant's
// 3 000 atoms a hit visited 3.75 slots on the raw top bits and visits
// 1.61 on the spread ones.
func spread(h uint64) uint32 { return uint32(h * 0x9E3779B97F4A7C15 >> 32) }

// home returns the slot a probe for the spread hash top starts at: its top
// k bits.
func (x *Index) home(top uint32) uint32 { return top >> (32 - uint32(x.k)) }

// Next returns the next candidate id, or false once the probe reaches an
// empty slot: no further id can have the hash.
func (p *Probe) Next() (int32, bool) {
	for {
		s := p.slots[p.i]
		if s == 0 {
			return 0, false
		}
		p.i = (p.i + 1) & p.mask
		if s>>p.fragShift<<p.fragShift == p.tag {
			return int32(s^p.tag) - 1, true
		}
	}
}

// Add records the next id, Len(), for a key hashing to h, and returns it.
// The caller has probed h and found no equal key. rehash returns the hash
// of an id already added; it is called only when the table grows.
func (x *Index) Add(h uint64, rehash func(id int32) uint64) int32 {
	if 4*(int(x.n)+1) > 3*len(x.slots) {
		x.resize(int(x.n)+1, rehash)
	}
	id := x.n
	x.place(h, uint32(id)+1)
	x.n++
	return id
}

// Reserve presizes an empty index for n ids, so adding them never grows
// it.
func (x *Index) Reserve(n int) {
	if x.n == 0 && 4*n > 3*len(x.slots) {
		x.resize(n, nil)
	}
}

// resize allocates the smallest table that holds n ids within the load
// bound (8 slots at least) and re-places the ids already added.
func (x *Index) resize(n int, rehash func(id int32) uint64) {
	k := uint8(3)
	for 3<<k < 4*n {
		k++
	}
	x.slots, x.k = make([]uint32, 1<<k), k
	for id := int32(0); id < x.n; id++ {
		x.place(rehash(id), uint32(id)+1)
	}
}

// place writes the slot for hash h and id+1 v at the first empty slot of
// h's probe sequence.
func (x *Index) place(h uint64, v uint32) {
	top := spread(h)
	mask := uint32(len(x.slots) - 1)
	i := x.home(top)
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = top<<x.k | v
}
