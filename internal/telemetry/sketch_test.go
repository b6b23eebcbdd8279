package telemetry

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestSketchExactWhenUnderCapacity(t *testing.T) {
	s := NewSketch(8)
	for i := 0; i < 5; i++ {
		s.Touch([]byte("a"), 1)
	}
	for i := 0; i < 3; i++ {
		s.Touch([]byte("b"), 1)
	}
	s.Touch([]byte("c"), 2) // weighted touch
	top := s.TopK(0)
	if len(top) != 3 {
		t.Fatalf("want 3 entries, got %d", len(top))
	}
	if top[0].Key != "a" || top[0].Count != 5 || top[0].Err != 0 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].Key != "b" || top[1].Count != 3 {
		t.Fatalf("top[1] = %+v", top[1])
	}
	if top[2].Key != "c" || top[2].Count != 2 {
		t.Fatalf("top[2] = %+v", top[2])
	}
	if s.Total() != 10 {
		t.Fatalf("total = %d", s.Total())
	}
}

func TestSketchHeavyHitterGuarantee(t *testing.T) {
	// SpaceSaving guarantee: any key with true frequency > N/cap is
	// monitored, and reported counts overestimate by at most N/cap.
	const cap = 32
	s := NewSketch(cap)
	rng := rand.New(rand.NewSource(7))
	trueCount := map[string]int64{}
	var n int64
	touch := func(k string) {
		s.Touch([]byte(k), 1)
		trueCount[k]++
		n++
	}
	for i := 0; i < 20000; i++ {
		// 3 heavy keys get ~60% of traffic; the rest spreads over 2000.
		r := rng.Intn(100)
		switch {
		case r < 30:
			touch("hot-A")
		case r < 50:
			touch("hot-B")
		case r < 60:
			touch("hot-C")
		default:
			touch(fmt.Sprintf("cold-%04d", rng.Intn(2000)))
		}
	}
	bound := n / cap
	top := s.TopK(3)
	seen := map[string]HotKey{}
	for _, hk := range s.TopK(0) {
		seen[hk.Key] = hk
	}
	for _, hot := range []string{"hot-A", "hot-B", "hot-C"} {
		hk, ok := seen[hot]
		if !ok {
			t.Fatalf("heavy hitter %s evicted (true=%d bound=%d)", hot, trueCount[hot], bound)
		}
		if hk.Count < trueCount[hot] {
			t.Errorf("%s undercounted: %d < true %d", hot, hk.Count, trueCount[hot])
		}
		if hk.Count > trueCount[hot]+bound {
			t.Errorf("%s over error bound: %d > %d+%d", hot, hk.Count, trueCount[hot], bound)
		}
		if hk.Err > bound {
			t.Errorf("%s err %d exceeds bound %d", hot, hk.Err, bound)
		}
	}
	if top[0].Key != "hot-A" {
		t.Errorf("rank 1 = %s, want hot-A", top[0].Key)
	}
}

func TestSketchBoundedMemory(t *testing.T) {
	s := NewSketch(16)
	for i := 0; i < 10000; i++ {
		s.Touch([]byte(fmt.Sprintf("k%05d", i)), 1)
	}
	if got := len(s.TopK(0)); got != 16 {
		t.Fatalf("monitored %d keys, cap 16", got)
	}
	used := 0
	for _, v := range s.slots {
		if v != 0 {
			used++
		}
	}
	if used != 16 {
		t.Fatalf("index holds %d keys", used)
	}
}

// scanSketch is the textbook SpaceSaving the sketch replaced: a map from
// key to entry and a linear scan for the first minimum on every eviction.
// It is the oracle the heap-ordered sketch must agree with.
type scanSketch struct {
	cap     int
	entries []scanEntry
	index   map[string]int
}

type scanEntry struct {
	key        string
	count, err int64
}

func (s *scanSketch) touch(key string, w int64) {
	if i, ok := s.index[key]; ok {
		s.entries[i].count += w
		return
	}
	if len(s.entries) < s.cap {
		s.entries = append(s.entries, scanEntry{key: key, count: w})
		s.index[key] = len(s.entries) - 1
		return
	}
	min := 0
	for i := 1; i < len(s.entries); i++ {
		if s.entries[i].count < s.entries[min].count {
			min = i
		}
	}
	e := &s.entries[min]
	delete(s.index, e.key)
	e.err = e.count
	e.count += w
	e.key = key
	s.index[key] = min
}

func (s *scanSketch) topK() []HotKey {
	out := make([]HotKey, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, HotKey{Key: e.key, Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// The resumable scan evicts exactly the entry the full linear scan evicts,
// so the sketch reports the same top-K for any stream: 200 seeded streams
// of weighted touches, from near-uniform to heavily skewed, with
// capacities that make ties among minimum counts common.
func TestSketchMatchesScanOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cap := 1 + rng.Intn(24)
		space := 1 + rng.Intn(200)
		skew := rng.Float64() * 3
		s := NewSketch(cap)
		o := &scanSketch{cap: cap, index: map[string]int{}}
		for i, n := 0, 1+rng.Intn(3000); i < n; i++ {
			k := int(float64(space) * math.Pow(rng.Float64(), 1+skew))
			key := fmt.Sprintf("k%d", k)
			w := int64(1 + rng.Intn(4))
			s.Touch([]byte(key), w)
			o.touch(key, w)
		}
		if got, want := s.TopK(0), o.topK(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (cap %d, %d keys): sketch reports\n%v\nthe linear scan\n%v", seed, cap, space, got, want)
		}
	}
}

func TestMergeHotKeys(t *testing.T) {
	a := []HotKey{{Key: "x", Count: 10}, {Key: "y", Count: 5, Err: 1}}
	b := []HotKey{{Key: "y", Count: 7}, {Key: "z", Count: 6}}
	m := MergeHotKeys(2, a, b)
	if len(m) != 2 {
		t.Fatalf("len = %d", len(m))
	}
	if m[0].Key != "y" || m[0].Count != 12 || m[0].Err != 1 {
		t.Fatalf("m[0] = %+v", m[0])
	}
	if m[1].Key != "x" || m[1].Count != 10 {
		t.Fatalf("m[1] = %+v", m[1])
	}
}

// Touches from several goroutines at once, with TopK reading beside them:
// every touch lands on exactly one entry (the counts sum to the total) and
// every monitored key is found again through the index.
func TestSketchConcurrentTouch(t *testing.T) {
	s := NewSketch(16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 5000; i++ {
				s.Touch([]byte(fmt.Sprintf("k%d", rng.Intn(100))), int64(1+rng.Intn(3)))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.TopK(4)
		}
	}()
	wg.Wait()
	var sum int64
	for _, hk := range s.TopK(0) {
		sum += hk.Count
		if _, ok := s.find(maphash.Bytes(s.seed, []byte(hk.Key)), []byte(hk.Key)); !ok {
			t.Fatalf("monitored key %q is not in the index", hk.Key)
		}
	}
	if sum != s.Total() {
		t.Fatalf("counts sum to %d, total touched %d", sum, s.Total())
	}
}

// Decay halves counts, error bounds and the total, drops the keys whose
// count reaches zero, and leaves a sketch that evicts its minimum again.
func TestDecayHalvesSketch(t *testing.T) {
	s := NewSketch(2)
	s.Touch([]byte("a"), 5)
	s.Touch([]byte("b"), 1)
	s.Touch([]byte("c"), 3) // evicts b: count 4, err 1
	s.Decay()
	if c, e, ok := s.Count([]byte("a")); !ok || c != 2 || e != 0 {
		t.Fatalf("a after decay: %d±%d (monitored %v), want 2±0", c, e, ok)
	}
	if c, e, ok := s.Count([]byte("c")); !ok || c != 2 || e != 0 {
		t.Fatalf("c after decay: %d±%d (monitored %v), want 2±0", c, e, ok)
	}
	if s.Total() != 4 {
		t.Fatalf("total after decay = %d, want 4", s.Total())
	}
	s.Touch([]byte("a"), 1)
	s.Decay() // a 3 → 1, c 2 → 1
	s.Decay() // both reach 0
	if n := s.Len(); n != 0 {
		t.Fatalf("%d keys monitored once every count reached 0", n)
	}
	s.Touch([]byte("d"), 1)
	s.Touch([]byte("e"), 2)
	s.Touch([]byte("f"), 1) // full: evicts d, the minimum
	if _, _, ok := s.Count([]byte("d")); ok {
		t.Fatal("d still monitored after a newcomer evicted the minimum")
	}
	if c, e, ok := s.Count([]byte("f")); !ok || c != 2 || e != 1 {
		t.Fatalf("f: %d±%d (monitored %v), want 2±1", c, e, ok)
	}
}
