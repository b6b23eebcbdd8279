package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count=%d", h.Count())
	}
	mean := h.Mean()
	if mean < 40*time.Millisecond || mean > 60*time.Millisecond {
		t.Fatalf("mean=%v, want ~50ms", mean)
	}
	p50 := h.Quantile(0.5)
	if p50 < 30*time.Millisecond || p50 > 70*time.Millisecond {
		t.Fatalf("p50=%v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 80*time.Millisecond {
		t.Fatalf("p99=%v", p99)
	}
	if h.Max() != 100*time.Millisecond {
		t.Fatalf("max=%v", h.Max())
	}
	if h.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for i := 0; i < 10000; i++ {
		h.Observe(time.Duration(1+i%1000) * time.Microsecond)
	}
	q50, q95, q99 := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99)
	if !(q50 <= q95 && q95 <= q99) {
		t.Fatalf("quantiles not ordered: %v %v %v", q50, q95, q99)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.99) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must be all zero")
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(time.Nanosecond) // below 1µs clamps to first bucket
	h.Observe(time.Hour)       // above range clamps to last bucket
	if h.Count() != 2 {
		t.Fatal("observations lost")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(w*i%5000+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count=%d", h.Count())
	}
}

func TestThroughput(t *testing.T) {
	tp := NewThroughput()
	tp.Add(500)
	time.Sleep(50 * time.Millisecond)
	if tp.Ops() != 500 {
		t.Fatalf("ops=%d", tp.Ops())
	}
	qps := tp.PerSecond()
	if qps <= 0 || qps > 500/0.05*2 {
		t.Fatalf("qps=%f", qps)
	}
	kqps := tp.KQPS()
	if kqps <= 0 || kqps > qps/1000*1.5 {
		t.Fatalf("kqps=%f vs qps=%f", kqps, qps)
	}
}

func TestTimelineBins(t *testing.T) {
	tl := NewTimeline(20 * time.Millisecond)
	for i := 0; i < 10; i++ {
		tl.Record()
	}
	time.Sleep(25 * time.Millisecond)
	tl.Mark("event")
	for i := 0; i < 5; i++ {
		tl.Record()
	}
	pts := tl.Series()
	if len(pts) < 2 {
		t.Fatalf("series has %d bins", len(pts))
	}
	if pts[0].QPS != 10/0.02 {
		t.Fatalf("bin 0 qps=%f", pts[0].QPS)
	}
	marks := tl.Marks()
	if marks["event"] < 20*time.Millisecond {
		t.Fatalf("mark at %v", marks["event"])
	}
	// Mutating the returned map must not affect internals.
	marks["evil"] = 0
	if len(tl.Marks()) != 1 {
		t.Fatal("Marks leaked internal map")
	}
}

func TestTimelineConcurrent(t *testing.T) {
	tl := NewTimeline(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tl.Record()
			}
		}()
	}
	wg.Wait()
	total := 0.0
	for _, p := range tl.Series() {
		total += p.QPS * 0.01
	}
	if int(total+0.5) != 4000 {
		t.Fatalf("timeline lost records: %f", total)
	}
}

// TestBucketBoundaries table-drives bucketOf over every power-of-two
// boundary (1µs .. 2^24µs, each ±1µs) against an integer reference,
// guarding the bits.Len64 rewrite of the old float math.Log2 version.
func TestBucketBoundaries(t *testing.T) {
	ref := func(us int64) int {
		if us < 1 {
			us = 1
		}
		exp := 0
		for int64(1)<<(exp+1) <= us && exp < 24 {
			exp++
		}
		base := int64(1) << exp
		sub := int((us - base) * subBuckets / base)
		if sub >= subBuckets {
			sub = subBuckets - 1
		}
		return exp*subBuckets + sub
	}
	var cases []int64
	for exp := 0; exp <= 24; exp++ {
		p := int64(1) << exp
		cases = append(cases, p-1, p, p+1)
	}
	cases = append(cases, 0, 3, 5, 7, 100, 999, 123456, int64(1)<<30)
	for _, us := range cases {
		got := bucketOf(time.Duration(us) * time.Microsecond)
		want := ref(us)
		if got != want {
			t.Errorf("bucketOf(%dµs)=%d, want %d", us, got, want)
		}
		if us >= 1 && us == int64(1)<<uint(bitsLenRef(us)-1) && us <= 1<<24 {
			// Exact powers of two must land on the first sub-bucket of
			// their exponent — the case float log2 used to get wrong.
			if got%subBuckets != 0 {
				t.Errorf("bucketOf(%dµs)=%d not at sub-bucket 0", us, got)
			}
		}
	}
	// Monotonic: bucket index never decreases as the value grows.
	prev := -1
	for us := int64(1); us <= 1<<20; us = us*7/4 + 1 {
		b := bucketOf(time.Duration(us) * time.Microsecond)
		if b < prev {
			t.Fatalf("bucketOf not monotonic at %dµs: %d < %d", us, b, prev)
		}
		prev = b
	}
}

// TestBucketLower checks the exported bucket bounds against bucketOf: a
// value is never below its bucket's lower bound, and the lower bounds and
// midpoints never fall as the bucket index rises.
func TestBucketLower(t *testing.T) {
	for _, d := range []time.Duration{
		0, time.Microsecond, 3 * time.Microsecond, 999 * time.Microsecond, time.Millisecond,
		5 * time.Millisecond, 123456 * time.Microsecond, time.Second, 16 * time.Second,
	} {
		b := bucketOf(d)
		if b < 0 || b >= HistBuckets {
			t.Fatalf("bucket %d out of range for %v", b, d)
		}
		if lo := BucketLower(b); d >= time.Microsecond && d < lo {
			t.Errorf("%v below its bucket's lower bound %v", d, lo)
		}
	}
	for b := 1; b < HistBuckets; b++ {
		if BucketLower(b) < BucketLower(b-1) || BucketMid(b) < BucketMid(b-1) {
			t.Fatalf("bounds fall at bucket %d", b)
		}
		if BucketMid(b) < BucketLower(b) {
			t.Errorf("bucket %d midpoint %v below its lower bound %v", b, BucketMid(b), BucketLower(b))
		}
	}
}

func bitsLenRef(v int64) int {
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

func TestQuantileClamping(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	// q >= 1 returns the exact max, not a bucket midpoint.
	if got := h.Quantile(1.0); got != h.Max() {
		t.Fatalf("Quantile(1.0)=%v, want Max()=%v", got, h.Max())
	}
	if got := h.Quantile(2.5); got != h.Max() {
		t.Fatalf("Quantile(2.5)=%v, want Max()=%v", got, h.Max())
	}
	// q <= 0 clamps to the smallest positive quantile.
	lo := h.Quantile(0)
	neg := h.Quantile(-1)
	if lo != neg {
		t.Fatalf("Quantile(0)=%v vs Quantile(-1)=%v", lo, neg)
	}
	if lo <= 0 || lo > 2*time.Microsecond {
		t.Fatalf("Quantile(0)=%v, want first bucket mid", lo)
	}
	// Empty histogram stays zero for any q.
	var empty Histogram
	if empty.Quantile(1.0) != 0 || empty.Quantile(-1) != 0 {
		t.Fatal("empty histogram quantiles must be 0")
	}
}

func TestThroughputZeroValue(t *testing.T) {
	var tp Throughput
	tp.Add(1000)
	if got := tp.PerSecond(); got != 0 {
		t.Fatalf("zero-value Throughput PerSecond()=%f, want 0", got)
	}
	if got := tp.KQPS(); got != 0 {
		t.Fatalf("zero-value Throughput KQPS()=%f, want 0", got)
	}
	if tp.Ops() != 1000 {
		t.Fatalf("ops=%d", tp.Ops())
	}
	// A properly constructed one still measures.
	live := NewThroughput()
	live.Add(100)
	time.Sleep(5 * time.Millisecond)
	if live.PerSecond() <= 0 {
		t.Fatal("live throughput must be positive")
	}
}

func TestLatencySampling(t *testing.T) {
	prev := SetLatencySampleEvery(4)
	defer SetLatencySampleEvery(prev)
	hits := 0
	for i := 0; i < 400; i++ {
		if SampleLatency() {
			hits++
		}
	}
	// Deterministic round-robin: exactly 1 in 4, regardless of where the
	// shared tick counter started.
	if hits != 100 {
		t.Fatalf("SampleLatency hit %d of 400 with period 4, want 100", hits)
	}
	SetLatencySampleEvery(1)
	for i := 0; i < 10; i++ {
		if !SampleLatency() {
			t.Fatal("period 1 must time every request")
		}
	}
	// n < 1 clamps to 1 rather than dividing by zero.
	SetLatencySampleEvery(0)
	if !SampleLatency() {
		t.Fatal("period 0 must behave like 1")
	}
}

// TestSamplerPerStream: streams that keep their own Sampler each time
// exactly 1 in N of their own calls, however their calls interleave with
// each other's and with the process-wide stream's.
func TestSamplerPerStream(t *testing.T) {
	prev := SetLatencySampleEvery(8)
	defer SetLatencySampleEvery(prev)
	const calls = 8 * 5000
	var a, b Sampler
	var hitsA, hitsB int
	var wg sync.WaitGroup
	for _, st := range []struct {
		s    *Sampler
		hits *int
	}{{&a, &hitsA}, {&b, &hitsB}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if st.s.Sample() {
					*st.hits++
				}
				SampleLatency()
			}
		}()
	}
	wg.Wait()
	if hitsA != calls/8 || hitsB != calls/8 {
		t.Fatalf("streams timed %d and %d of %d calls each, want %d", hitsA, hitsB, calls, calls/8)
	}
	var s Sampler
	if got := s.Start(true); got.IsZero() {
		t.Fatal("a needed start must read the clock")
	}
	if got := s.Start(false); !got.IsZero() || Since(got) != -1 {
		t.Fatal("the first unneeded start of a stream is not its sampled one")
	}
}
