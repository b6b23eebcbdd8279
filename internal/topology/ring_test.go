package topology

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// searchLookup is the ring lookup the bucket table replaced: a binary
// search for the first point at or above h, wrapping around.
func searchLookup(r *Ring, h uint64) int {
	if len(r.hashes) == 0 {
		return 0
	}
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owners[i]
}

// TestRingLookupMatchesSearch: on rings of 1 to 8 shards, the bucket table
// picks the same shard as the binary search for a million random ring
// positions, for every point, its neighbours, and both ends of the space.
func TestRingLookupMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	for shards := 1; shards <= 8; shards++ {
		ids := make([]string, shards)
		for i := range ids {
			ids[i] = fmt.Sprintf("shard-%d", i)
		}
		r := BuildRingFromIDs(ids, defaultVirtualNodes)
		check := func(h uint64) {
			if got, want := r.lookupHash(h), searchLookup(r, h); got != want {
				t.Fatalf("%d shards: position %#x owned by shard %d, the search says %d", shards, h, got, want)
			}
		}
		check(0)
		check(math.MaxUint64)
		for _, p := range r.hashes {
			check(p - 1)
			check(p)
			check(p + 1)
		}
		for i := 0; i < n; i++ {
			check(rng.Uint64())
		}
	}
}

// The inlined FNV-1a is hash/fnv's.
func TestHash64MatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 10_000; i++ {
		b := make([]byte, rng.IntN(40))
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		h := fnv.New64a()
		h.Write(b)
		want := mix64(h.Sum64())
		if got := hash64Bytes(b); got != want {
			t.Fatalf("hash64Bytes(%x) = %#x, want %#x", b, got, want)
		}
		if got := hash64(string(b)); got != want {
			t.Fatalf("hash64(%q) = %#x, want %#x", b, got, want)
		}
	}
}

func TestRingLookupZeroAllocs(t *testing.T) {
	r := BuildRingFromIDs([]string{"a", "b", "c"}, defaultVirtualNodes)
	key := []byte("user0000000042")
	if n := testing.AllocsPerRun(1000, func() { r.Lookup(key) }); n != 0 {
		t.Fatalf("Lookup allocates %.1f times", n)
	}
}

func BenchmarkRingLookup(b *testing.B) {
	r := BuildRingFromIDs([]string{"a", "b", "c", "d"}, defaultVirtualNodes)
	key := []byte("user0000000042")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Lookup(key)
	}
}
