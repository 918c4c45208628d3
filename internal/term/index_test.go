package term

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// indexScript runs a script against an Index and a map oracle. Each two
// bytes are one step on key v>>2 (a 14-bit key space, so keys repeat):
// v&3 == 3 looks the key up, anything else interns it — looks it up and,
// when absent, adds it as the next id. After every step the index must
// agree with the oracle, which maps each hash to the ids added under it:
// a lookup finds exactly the oracle's id, and every id the oracle holds
// for a hash is among the probe's candidates. hash gives a key's hash.
func indexScript(tb testing.TB, x *Index, script []byte, hash func(key uint64) uint64) {
	tb.Helper()
	var keys []uint64 // keys[id]
	oracle := make(map[uint64][]int32)
	rehash := func(id int32) uint64 { return hash(keys[id]) }
	lookup := func(key uint64) (int32, []int32) {
		var cands []int32
		found := int32(-1)
		for p := x.Probe(hash(key)); ; {
			id, ok := p.Next()
			if !ok {
				return found, cands
			}
			if id < 0 || int(id) >= len(keys) {
				tb.Fatalf("probe of key %d yielded id %d, have %d ids", key, id, len(keys))
			}
			cands = append(cands, id)
			if keys[id] == key {
				found = id
			}
		}
	}
	for step := 0; step+1 < len(script); step += 2 {
		v := binary.LittleEndian.Uint16(script[step:])
		key := uint64(v >> 2)
		h := hash(key)
		want := int32(-1)
		for _, id := range oracle[h] {
			if keys[id] == key {
				want = id
			}
		}
		got, cands := lookup(key)
		if got != want {
			tb.Fatalf("step %d: lookup of key %d = %d, oracle %d", step/2, key, got, want)
		}
		for _, id := range oracle[h] {
			if !slices.Contains(cands, id) {
				tb.Fatalf("step %d: probe of hash %#x missed id %d (candidates %v)", step/2, h, id, cands)
			}
		}
		if v&3 != 3 && got < 0 {
			id := x.Add(h, rehash)
			if int(id) != len(keys) {
				tb.Fatalf("step %d: Add returned id %d, want %d", step/2, id, len(keys))
			}
			keys = append(keys, key)
			oracle[h] = append(oracle[h], id)
		}
		if x.Len() != len(keys) {
			tb.Fatalf("step %d: Len = %d, want %d", step/2, x.Len(), len(keys))
		}
	}
	for id, key := range keys {
		if got, _ := lookup(key); got != int32(id) {
			tb.Fatalf("end: key %d looks up as id %d, want %d", key, got, id)
		}
	}
}

// spreadHash is a key's hash as the engine computes one.
func spreadHash(key uint64) uint64 { return HashIDs(HashSeed, []ID{ID(key)}) }

// collidingHash gives every key one home slot and one fragment — the top
// 32 bits — so every lookup walks every id and tells them apart by key.
func collidingHash(key uint64) uint64 { return 0x9e3779b9<<32 | key }

func randomScript(rng *rand.Rand, steps int) []byte {
	b := make([]byte, 2*steps)
	rng.Read(b)
	return b
}

// TestIndexMatchesMap: random intern and lookup scripts agree with a map
// oracle under the engine's hash and under a hash that sends every key to
// one slot and fragment, from every Reserve size up to past the script's
// ids (so growth starts from each table size), and on empty indexes.
func TestIndexMatchesMap(t *testing.T) {
	for _, h := range []struct {
		name  string
		hash  func(uint64) uint64
		steps int
	}{{"spread", spreadHash, 3000}, {"colliding", collidingHash, 300}} {
		for reserve := 0; reserve <= 80; reserve++ {
			t.Run(fmt.Sprintf("%s/reserve=%d", h.name, reserve), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(reserve)))
				var x Index
				x.Reserve(reserve)
				indexScript(t, &x, randomScript(rng, h.steps), h.hash)
			})
		}
	}
	t.Run("empty", func(t *testing.T) {
		var zero, reserved Index
		reserved.Reserve(100)
		for _, x := range []*Index{&zero, &reserved} {
			for _, key := range []uint64{0, 1, 1 << 63, ^uint64(0)} {
				p := x.Probe(key)
				if id, ok := p.Next(); ok {
					t.Fatalf("empty index yielded id %d for hash %#x", id, key)
				}
			}
			if x.Len() != 0 {
				t.Fatalf("empty index has Len %d", x.Len())
			}
		}
	})
}

// FuzzIndex runs arbitrary scripts through the same interpreter, under
// either hash and from a fuzzed Reserve size.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{}, false, uint8(0))
	f.Add([]byte{0, 0, 3, 0, 4, 0, 4, 0, 7, 0}, false, uint8(1))
	f.Add(randomScript(rand.New(rand.NewSource(1)), 200), true, uint8(5))
	f.Add(randomScript(rand.New(rand.NewSource(2)), 500), false, uint8(200))
	f.Fuzz(func(t *testing.T, script []byte, collide bool, reserve uint8) {
		hash := spreadHash
		if collide {
			hash = collidingHash
			script = script[:min(len(script), 1000)] // every lookup walks every id
		}
		var x Index
		x.Reserve(int(reserve))
		indexScript(t, &x, script, hash)
	})
}

var indexSink int32

// BenchmarkIndex times adding n keys to an empty index, growth included
// (insert), and looking each of them up (probe), at 1 000 and 100 000
// ids; ns/op is per key.
func BenchmarkIndex(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		hashes := make([]uint64, n)
		for i := range hashes {
			hashes[i] = spreadHash(uint64(i))
		}
		rehash := func(id int32) uint64 { return hashes[id] }
		b.Run(fmt.Sprintf("insert/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += n {
				var x Index
				for _, h := range hashes[:min(n, b.N-i)] {
					indexSink = x.Add(h, rehash)
				}
			}
		})
		b.Run(fmt.Sprintf("probe/%d", n), func(b *testing.B) {
			var x Index
			for _, h := range hashes {
				x.Add(h, rehash)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := x.Probe(hashes[i%n])
				indexSink, _ = p.Next()
			}
		})
	}
}
