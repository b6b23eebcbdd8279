package metrics

import (
	"sync/atomic"
	"time"
)

// Latency sampling for the data path. On hosts with a slow clocksource a
// time.Now/time.Since pair costs more than the rest of an op's bookkeeping
// combined (~60ns per clock read on some VMs, vs single-digit-ns atomics),
// so the per-request server loops time 1-in-N requests instead of every
// one. Op counters stay exact; latency histograms hold a uniform sample,
// so sum/count still estimates the true mean and quantiles keep their
// distribution. Traced requests are always timed — the span needs its
// duration regardless — which callers handle by OR-ing the trace decision
// into SampleLatency's answer.
var (
	latTick  atomic.Uint64
	latEvery atomic.Uint64
)

const defaultLatencySampleEvery = 8

func init() { latEvery.Store(defaultLatencySampleEvery) }

// SampleLatency reports whether this request should pay for a clock pair
// and a histogram observe. Deterministic round-robin 1-in-N.
func SampleLatency() bool {
	return latTick.Add(1)%latEvery.Load() == 0
}

// SetLatencySampleEvery makes every n-th request timed (n < 1 is treated
// as 1, timing everything) and returns the previous period. Tests use it
// to make histogram counts deterministic.
func SetLatencySampleEvery(n uint64) uint64 {
	if n < 1 {
		n = 1
	}
	return latEvery.Swap(n)
}

// Start reads the clock for an op whose latency is wanted — sampled, or
// needed anyway (a trace, a hedger) — and returns the zero time for every
// other op.
func Start(needed bool) time.Time {
	if needed || SampleLatency() {
		return time.Now()
	}
	return time.Time{}
}

// Since returns the latency of an op Start timed, -1 for one it did not.
func Since(start time.Time) time.Duration {
	if start.IsZero() {
		return -1
	}
	return time.Since(start)
}
