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
// into the sampler's answer.
//
// Each stream of requests — a served connection, a client — keeps its own
// tick, so the data path writes no counter another core writes too, and
// every stream times exactly 1 in N of its own requests.
var latEvery atomic.Uint64

const defaultLatencySampleEvery = 8

func init() { latEvery.Store(defaultLatencySampleEvery) }

// Sampler is one request stream's deterministic round-robin 1-in-N tick.
// The zero value is ready; it is safe for concurrent use.
type Sampler struct{ tick atomic.Uint64 }

// Sample reports whether this request should pay for a clock pair and a
// histogram observe.
func (s *Sampler) Sample() bool {
	return s.tick.Add(1)%latEvery.Load() == 0
}

// Start reads the clock for an op whose latency is wanted — sampled, or
// needed anyway (a trace, a hedger) — and returns the zero time for every
// other op.
func (s *Sampler) Start(needed bool) time.Time {
	if needed || s.Sample() {
		return time.Now()
	}
	return time.Time{}
}

// shared is the stream of callers that keep no Sampler of their own.
var shared Sampler

// SampleLatency samples from the process-wide stream.
func SampleLatency() bool { return shared.Sample() }

// SetLatencySampleEvery makes every n-th request of each stream timed
// (n < 1 is treated as 1, timing everything) and returns the previous
// period. Tests use it to make histogram counts deterministic.
func SetLatencySampleEvery(n uint64) uint64 {
	if n < 1 {
		n = 1
	}
	return latEvery.Swap(n)
}

// Since returns the latency of an op Start timed, -1 for one it did not.
func Since(start time.Time) time.Duration {
	if start.IsZero() {
		return -1
	}
	return time.Since(start)
}
