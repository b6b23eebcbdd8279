// Package metrics provides the measurement plumbing the benchmark harness
// uses to regenerate the paper's tables and figures: throughput counters,
// log-bucketed latency histograms (average / p50 / p95 / p99), and
// wall-clock timelines for the failover and transition figures.
package metrics

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram is a concurrent latency histogram with logarithmic buckets
// from 1µs to ~17s (sub-bucket resolution 1/8 of a power of two).
type Histogram struct {
	buckets [bucketCount]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64
}

const (
	subBuckets  = 8
	bucketCount = 25 * subBuckets // 2^0µs .. 2^24µs
)

func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	// Integer log2: bits.Len64 is exact where math.Log2's float round-trip
	// is fragile at exact powers of two (e.g. Log2(1<<29 - 1) rounding up).
	exp := bits.Len64(uint64(us)) - 1
	if exp > 24 {
		exp = 24
	}
	base := int64(1) << exp
	sub := int((us - base) * subBuckets / base)
	if sub >= subBuckets {
		sub = subBuckets - 1
	}
	return exp*subBuckets + sub
}

// HistBuckets is how many buckets a Histogram has; bucket b, read with
// Bucket, holds the observations from BucketLower(b) to BucketLower(b+1).
const HistBuckets = bucketCount

// BucketLower returns the inclusive lower bound of bucket b.
func BucketLower(b int) time.Duration {
	base := int64(1) << (b / subBuckets)
	return time.Duration(base+base*int64(b%subBuckets)/subBuckets) * time.Microsecond
}

// BucketMid returns the midpoint of bucket b, what quantiles report.
func BucketMid(b int) time.Duration {
	base := int64(1) << (b / subBuckets)
	return BucketLower(b) + time.Duration(base/(2*subBuckets))*time.Microsecond
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.raiseMax(int64(d))
}

func (h *Histogram) raiseMax(d int64) {
	for {
		cur := h.max.Load()
		if d <= cur || h.max.CompareAndSwap(cur, d) {
			return
		}
	}
}

// Merge adds o's observations to h.
func (h *Histogram) Merge(o *Histogram) {
	for b := range o.buckets {
		if n := o.buckets[b].Load(); n != 0 {
			h.buckets[b].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	h.raiseMax(o.max.Load())
}

// Bucket returns bucket b's count.
func (h *Histogram) Bucket(b int) int64 { return h.buckets[b].Load() }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the average latency.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// expCounts collapses the sub-bucketed histogram to one count per power of
// two (25 entries, 2^0µs .. 2^24µs), the granularity used by the
// Prometheus exposition in registry.go.
func (h *Histogram) expCounts() [25]int64 {
	var out [25]int64
	for b := 0; b < bucketCount; b++ {
		out[b/subBuckets] += h.buckets[b].Load()
	}
	return out
}

// Quantile returns an approximate quantile. q is clamped to (0, 1]: q <= 0
// behaves like the smallest positive quantile (the first nonempty bucket)
// and q >= 1 returns Max() exactly, without scanning the buckets.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max()
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < bucketCount; b++ {
		cum += h.buckets[b].Load()
		if cum >= target {
			return BucketMid(b)
		}
	}
	return h.Max()
}

// Summary renders "mean / p50 / p95 / p99".
func (h *Histogram) Summary() string {
	return fmt.Sprintf("mean=%v p50=%v p95=%v p99=%v",
		h.Mean().Round(time.Microsecond),
		h.Quantile(0.50).Round(time.Microsecond),
		h.Quantile(0.95).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond))
}

// Throughput measures completed operations over a wall-clock window.
type Throughput struct {
	ops   atomic.Int64
	start time.Time
}

// NewThroughput starts the clock.
func NewThroughput() *Throughput {
	return &Throughput{start: time.Now()}
}

// Add records n completed operations.
func (t *Throughput) Add(n int) { t.ops.Add(int64(n)) }

// Ops returns the total recorded.
func (t *Throughput) Ops() int64 { return t.ops.Load() }

// PerSecond returns ops/s since construction. A zero-value Throughput has
// no start instant, so it reports 0 rather than dividing by the decades
// elapsed since the zero time.
func (t *Throughput) PerSecond() float64 {
	if t.start.IsZero() {
		return 0
	}
	el := time.Since(t.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(t.ops.Load()) / el
}

// KQPS returns thousands of queries per second, the paper's unit.
func (t *Throughput) KQPS() float64 { return t.PerSecond() / 1000 }

// Timeline bins completions into fixed wall-clock intervals, producing the
// throughput-vs-time series of Figs. 10 and 16.
type Timeline struct {
	mu       sync.Mutex
	start    time.Time
	interval time.Duration
	bins     []int64
	marks    map[string]time.Duration
}

// NewTimeline starts a timeline with the given bin width.
func NewTimeline(interval time.Duration) *Timeline {
	return &Timeline{
		start:    time.Now(),
		interval: interval,
		marks:    map[string]time.Duration{},
	}
}

// Record counts one completed operation at the current instant.
func (tl *Timeline) Record() {
	idx := int(time.Since(tl.start) / tl.interval)
	tl.mu.Lock()
	for len(tl.bins) <= idx {
		tl.bins = append(tl.bins, 0)
	}
	tl.bins[idx]++
	tl.mu.Unlock()
}

// Mark labels the current instant (e.g. "kill", "transition-start").
func (tl *Timeline) Mark(label string) {
	tl.mu.Lock()
	tl.marks[label] = time.Since(tl.start)
	tl.mu.Unlock()
}

// Point is one timeline bin as ops/s.
type Point struct {
	At  time.Duration
	QPS float64
}

// Series returns the timeline as ops/s per bin.
func (tl *Timeline) Series() []Point {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := make([]Point, len(tl.bins))
	for i, n := range tl.bins {
		out[i] = Point{
			At:  time.Duration(i) * tl.interval,
			QPS: float64(n) / tl.interval.Seconds(),
		}
	}
	return out
}

// Marks returns the labeled instants.
func (tl *Timeline) Marks() map[string]time.Duration {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := make(map[string]time.Duration, len(tl.marks))
	for k, v := range tl.marks {
		out[k] = v
	}
	return out
}
