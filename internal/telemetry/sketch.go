package telemetry

import (
	"bytes"
	"hash/maphash"
	"sort"
	"sync"
)

// Sketch is a SpaceSaving heavy-hitter summary (Metwally et al.): at most
// cap monitored keys; an unmonitored key evicts the current minimum and
// inherits its count as over-estimation error. Guarantees: every key with
// true frequency > N/cap is monitored, and a reported count overestimates
// the true count by at most its Err field (≤ N/cap), where N is the total
// weight touched. Memory is O(cap) regardless of keyspace size.
//
// Touch is mutex-guarded and does no allocation once every entry's key
// buffer has grown to the keys it sees, hit or miss: under uniform keys
// nearly every touch is a miss, so the miss path is the one that must be
// cheap. An entry keeps its key in a buffer it reuses when it is evicted,
// and an open-addressed table of entry numbers finds a key. The entry to
// evict is the first one (lowest entry number) holding the minimum count,
// as in the textbook sketch's linear scan, but the scan resumes where the
// last one stopped: counts only grow, so while the minimum stands no entry
// before that point can hold it again. A pass finds the next minimum only
// once every entry holding the old one has been evicted or touched past
// it, so an eviction costs a couple of comparisons, not cap of them.
type Sketch struct {
	mu      sync.Mutex
	cap     int
	total   int64
	seed    maphash.Seed
	entries []sketchEntry
	counts  []int64 // counts[i] is entries[i]'s count, packed for the scan
	slots   []int32 // open-addressed, linear probing: entry number + 1, 0 empty
	// min never overstates the least count (counts only grow; it starts at
	// 0, below any), and no entry before next holds it.
	min  int64
	next int
}

type sketchEntry struct {
	key  []byte // reused when the entry is evicted
	hash uint64
	err  int64 // over-estimation carried from the evicted minimum
}

// HotKey is one reported heavy hitter. Count overestimates the true
// frequency by at most Err.
type HotKey struct {
	Key   string `json:"key"`
	Count int64  `json:"count"`
	Err   int64  `json:"err,omitempty"`
}

// NewSketch returns a sketch monitoring at most cap keys.
func NewSketch(cap int) *Sketch {
	if cap < 1 {
		cap = 1
	}
	// A miss unlinks one key and links another. At a load of at most one
	// eighth the probe chain behind an unlinked slot is nearly always
	// empty, so the unlink moves nothing; the table is 32 bytes a key.
	slots := 2
	for slots < 8*cap {
		slots *= 2
	}
	return &Sketch{
		cap:     cap,
		seed:    maphash.MakeSeed(),
		entries: make([]sketchEntry, 0, cap),
		counts:  make([]int64, 0, cap),
		slots:   make([]int32, slots),
	}
}

// Touch credits key with weight w (samplers pass their sampling period so
// heavy hitters keep their relative mass).
func (s *Sketch) Touch(key []byte, w int64) {
	if w <= 0 {
		return
	}
	h := maphash.Bytes(s.seed, key)
	s.mu.Lock()
	s.total += w
	slot, ok := s.find(h, key)
	if ok {
		s.counts[s.slots[slot]-1] += w
		s.mu.Unlock()
		return
	}
	if len(s.entries) < s.cap {
		s.entries = append(s.entries, sketchEntry{key: append([]byte(nil), key...), hash: h})
		s.counts = append(s.counts, w)
		s.slots[slot] = int32(len(s.entries))
		s.mu.Unlock()
		return
	}
	// Evict the minimum; the newcomer inherits its count as error.
	i := s.evictee()
	e := &s.entries[i]
	old, _ := s.find(e.hash, e.key)
	s.unlink(old)
	e.err = s.counts[i]
	s.counts[i] += w
	e.key = append(e.key[:0], key...)
	e.hash = h
	slot, _ = s.find(h, key) // the unlink may have moved the probe chain
	s.slots[slot] = int32(i + 1)
	s.mu.Unlock()
}

// evictee returns the first entry holding the least count.
func (s *Sketch) evictee() int {
	for {
		for i := s.next; i < len(s.counts); i++ {
			if s.counts[i] == s.min {
				s.next = i + 1
				return i
			}
		}
		s.rescan() // every entry has grown past min
	}
}

// rescan finds the least count anew and restarts the scan at entry 0.
func (s *Sketch) rescan() {
	s.min = s.counts[0]
	for _, c := range s.counts[1:] {
		s.min = min(s.min, c)
	}
	s.next = 0
}

// find returns key's slot, or the empty slot its probe ends on.
func (s *Sketch) find(h uint64, key []byte) (slot int, ok bool) {
	mask := len(s.slots) - 1
	for j := int(h) & mask; ; j = (j + 1) & mask {
		v := s.slots[j]
		if v == 0 {
			return j, false
		}
		if e := &s.entries[v-1]; e.hash == h && bytes.Equal(e.key, key) {
			return j, true
		}
	}
}

// unlink empties slot j and shifts later members of its probe chain back,
// so the table needs no deletion markers.
func (s *Sketch) unlink(j int) {
	mask := len(s.slots) - 1
	for k := (j + 1) & mask; s.slots[k] != 0; k = (k + 1) & mask {
		home := int(s.entries[s.slots[k]-1].hash) & mask
		// The member at k may move to j unless its home lies cyclically
		// in (j, k]: then its probe never passes j.
		if (k-home)&mask >= (k-j)&mask {
			s.slots[j] = s.slots[k]
			j = k
		}
	}
	s.slots[j] = 0
}

// Count returns key's count and the bound err on its over-estimation; ok
// is false when key is not monitored.
func (s *Sketch) Count(key []byte) (count, err int64, ok bool) {
	h := maphash.Bytes(s.seed, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.find(h, key)
	if !ok {
		return 0, 0, false
	}
	i := s.slots[slot] - 1
	return s.counts[i], s.entries[i].err, true
}

// Len returns the number of monitored keys.
func (s *Sketch) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Decay halves every count, error bound and the total, and stops
// monitoring the keys whose count falls to zero, so newcomers take their
// entries without evicting anything. Repeated, it ages the summary: the
// keys that stay are the ones still touched.
func (s *Sketch) Decay() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total /= 2
	clear(s.slots)
	n := 0
	for i, e := range s.entries {
		if c := s.counts[i] / 2; c > 0 {
			e.err /= 2
			s.entries[n], s.counts[n] = e, c
			slot, _ := s.find(e.hash, e.key)
			s.slots[slot] = int32(n + 1)
			n++
		}
	}
	s.entries, s.counts = s.entries[:n], s.counts[:n]
	s.min, s.next = 0, 0 // counts shrank: scan for the minimum anew
}

// Total returns the total weight touched.
func (s *Sketch) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// TopK returns the k largest monitored keys, count-descending.
func (s *Sketch) TopK(k int) []HotKey {
	s.mu.Lock()
	out := make([]HotKey, 0, len(s.entries))
	for i, e := range s.entries {
		out = append(out, HotKey{Key: string(e.key), Count: s.counts[i], Err: e.err})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// MergeHotKeys combines top-K lists from several sketches (e.g. the
// replicas of one shard) by summing counts per key and re-ranking. The
// result keeps SpaceSaving's error semantics per contributor (Err fields
// sum), but keys that fell outside some contributor's top-K undercount.
func MergeHotKeys(k int, lists ...[]HotKey) []HotKey {
	merged := make(map[string]HotKey)
	for _, list := range lists {
		for _, hk := range list {
			m := merged[hk.Key]
			m.Key = hk.Key
			m.Count += hk.Count
			m.Err += hk.Err
			merged[hk.Key] = m
		}
	}
	out := make([]HotKey, 0, len(merged))
	for _, hk := range merged {
		out = append(out, hk)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
