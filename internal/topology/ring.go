package topology

import (
	"sort"
	"strconv"
)

// defaultVirtualNodes is the number of ring points per shard; 160 matches
// common consistent-hashing deployments (libketama, Cassandra vnodes) and
// keeps the load spread within a few percent.
const defaultVirtualNodes = 160

// Ring is an immutable consistent-hash ring mapping keys to shard indexes.
// Clients build one per Map epoch and reuse it for every lookup.
type Ring struct {
	hashes []uint64
	owners []int
	// first is, per bucket of the hash space (its top bits), the index of
	// the first point at or above the bucket's start: a lookup starts
	// there and steps over the few points inside the bucket, in place of a
	// binary search over all of them.
	first []uint32
	shift uint // 64 - the bucket bits
}

// BuildRing constructs a ring over the map's shard IDs with the default
// virtual-node count.
func BuildRing(m *Map) *Ring {
	ids := make([]string, len(m.Shards))
	for i, s := range m.Shards {
		ids[i] = s.ID
	}
	return BuildRingFromIDs(ids, defaultVirtualNodes)
}

// BuildRingFromIDs constructs a ring with vnodes points per shard ID. The
// ring depends only on the IDs, so adding or removing one shard moves only
// ~1/n of the keyspace (the consistent-hashing property).
func BuildRingFromIDs(ids []string, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	r := &Ring{
		hashes: make([]uint64, 0, len(ids)*vnodes),
		owners: make([]int, 0, len(ids)*vnodes),
	}
	type point struct {
		h     uint64
		owner int
	}
	points := make([]point, 0, len(ids)*vnodes)
	for i, id := range ids {
		for v := 0; v < vnodes; v++ {
			points = append(points, point{h: hash64(id + "#" + strconv.Itoa(v)), owner: i})
		}
	}
	sort.Slice(points, func(a, b int) bool { return points[a].h < points[b].h })
	for _, p := range points {
		r.hashes = append(r.hashes, p.h)
		r.owners = append(r.owners, p.owner)
	}
	// About two buckets per point: a bucket then holds no point or one,
	// rarely more.
	bits := uint(1)
	for 1<<bits < 2*len(r.hashes) {
		bits++
	}
	r.shift = 64 - bits
	r.first = make([]uint32, 1<<bits)
	i := 0
	for b := range r.first {
		for i < len(r.hashes) && r.hashes[i]>>r.shift < uint64(b) {
			i++
		}
		r.first[b] = uint32(i)
	}
	return r
}

// Lookup returns the shard index owning key.
func (r *Ring) Lookup(key []byte) int {
	return r.lookupHash(hash64Bytes(key))
}

// lookupHash returns the shard index owning a raw ring position: the
// first point at or above h, wrapping around. The diff computation walks
// ring positions directly instead of hashing keys.
func (r *Ring) lookupHash(h uint64) int {
	if len(r.hashes) == 0 {
		return 0
	}
	i := int(r.first[h>>r.shift])
	for i < len(r.hashes) && r.hashes[i] < h {
		i++
	}
	if i == len(r.hashes) {
		i = 0 // wrap around
	}
	return r.owners[i]
}

// FNV-1a, 64-bit (hash/fnv's New64a, without the allocation).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hash64(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return mix64(h)
}

func hash64Bytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer; FNV alone clusters on short
// structured keys, and ring balance needs avalanche behaviour.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
