package main

import "math/bits"

// hist is a latency histogram over nanoseconds with 128 sub-buckets per
// power of two: every bucket is at most 1/128 (0.8 %) wide, so a median
// read from it moves by less than the 1 % a regression bound must resolve.
// (metrics.Histogram's ~19 % buckets make medians jump between runs.)
type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

const (
	histSub     = 7                             // log2 of sub-buckets per octave
	histBuckets = (40 - histSub + 1) << histSub // values up to 2^40 ns (~18 min)
)

func histBucket(ns uint64) int {
	if ns < 1<<histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - histSub - 1
	b := (e+1)<<histSub | int(ns>>e)&(1<<histSub-1)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// histValue is the midpoint of bucket b.
func histValue(b int) float64 {
	if b < 1<<histSub {
		return float64(b)
	}
	e := b>>histSub - 1
	low := uint64(1<<histSub+b&(1<<histSub-1)) << e
	return float64(low) + float64(uint64(1)<<e)/2
}

// add records weight samples of ns (a 16-key MultiGet is 16 keys that each
// waited the call's latency).
func (h *hist) add(ns int64, weight uint32) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))] += weight
	h.n += uint64(weight)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for b, c := range h.counts {
		seen += uint64(c)
		if seen > rank {
			return histValue(b)
		}
	}
	return histValue(histBuckets - 1)
}
