// Package trace implements lightweight cross-hop request tracing for the
// data path. A client samples a request head-based (default 1 in 1024),
// stamps it with a nonzero 64-bit trace ID that rides the wire protocol
// (binary: optional trailing field; text: optional tenth element) and the
// rpc frame ("t" field), and every hop that sees a nonzero ID records a
// span — node, stage, start, duration — into a bounded in-memory ring.
// /tracez groups the ring back into whole traces, so one replicated PUT
// can be followed client → controlet → each replica → datalet.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSampleEvery is the head-based sampling rate: one traced request
// per this many Sample calls.
const DefaultSampleEvery = 1024

var (
	sampleEvery atomic.Uint64
	sampleSeq   atomic.Uint64
)

func init() { sampleEvery.Store(DefaultSampleEvery) }

// SetSampleEvery sets the global sampling rate: every n-th request is
// traced. 1 traces everything (tests), 0 disables sampling entirely.
func SetSampleEvery(n uint64) { sampleEvery.Store(n) }

// SampleEvery returns the current sampling rate.
func SampleEvery() uint64 { return sampleEvery.Load() }

// Sample makes the head-based sampling decision for a new request. It
// returns 0 (not traced) or a fresh nonzero trace ID. The unsampled path
// is one atomic add.
func Sample() uint64 {
	n := sampleEvery.Load()
	if n == 0 {
		return 0
	}
	c := sampleSeq.Add(1)
	if n > 1 && c%n != 0 {
		return 0
	}
	return mix64(c) | 1 // mixed so IDs are spread out; |1 keeps them nonzero
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Span is one hop's record of a traced request.
type Span struct {
	Trace uint64        `json:"trace"`
	Node  string        `json:"node"`  // e.g. "client", "s0-r1", "s0-r1-datalet"
	Stage string        `json:"stage"` // e.g. "client.PUT", "controlet.CHAINPUT"
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Err   string        `json:"err,omitempty"`
}

// Trace is a group of spans sharing one ID, as served by /tracez.
type Trace struct {
	ID    uint64        `json:"id"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"` // earliest start to latest end
	Spans []Span        `json:"spans"`
}

// Recorder keeps a bounded ring of recent spans plus the slowest spans
// seen. The zero value is unusable; use NewRecorder.
type Recorder struct {
	mu    sync.Mutex
	ring  []Span // made at the first Record, with capacity size
	size  int
	next  int // next slot to overwrite, once the ring is full
	full  bool
	total uint64
	slow  []Span // kept sorted descending by Dur, bounded at slowCap
}

const slowCap = 64

// Default is the process-wide recorder all instrumentation records into;
// in the in-process cluster harness every hop shares it, so one /tracez
// shows complete traces.
var Default = NewRecorder(4096)

// NewRecorder returns a recorder retaining the last size spans. The ring
// is made when the first span is recorded, so an untraced process never
// holds it.
func NewRecorder(size int) *Recorder {
	if size < 1 {
		size = 1
	}
	return &Recorder{size: size}
}

// Record stores one span. Call only for sampled requests (tid != 0); the
// cost (mutex + copy) is paid roughly once per 1024 requests per hop at
// the default sampling rate.
func (r *Recorder) Record(tid uint64, node, stage string, start time.Time, dur time.Duration, errStr string) {
	if tid == 0 {
		return
	}
	sp := Span{Trace: tid, Node: node, Stage: stage, Start: start, Dur: dur, Err: errStr}
	r.mu.Lock()
	r.total++
	if r.ring == nil {
		r.ring = make([]Span, 0, r.size)
	}
	if len(r.ring) < r.size {
		r.ring = append(r.ring, sp)
	} else {
		r.ring[r.next] = sp
		r.next = (r.next + 1) % r.size
		r.full = true
	}
	// Insert into the slowest list if it qualifies.
	if len(r.slow) < slowCap || dur > r.slow[len(r.slow)-1].Dur {
		i := sort.Search(len(r.slow), func(i int) bool { return r.slow[i].Dur < dur })
		r.slow = append(r.slow, Span{})
		copy(r.slow[i+1:], r.slow[i:])
		r.slow[i] = sp
		if len(r.slow) > slowCap {
			r.slow = r.slow[:slowCap]
		}
	}
	r.mu.Unlock()
}

// Record stores a span in the Default recorder.
func Record(tid uint64, node, stage string, start time.Time, dur time.Duration, errStr string) {
	Default.Record(tid, node, stage, start, dur, errStr)
}

// Total returns how many spans have ever been recorded.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// snapshot copies the ring in arrival order (oldest first).
func (r *Recorder) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.ring))
	if r.full {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = append(out, r.ring...)
	}
	return out
}

// Traces groups the retained spans into whole traces, most recent first,
// returning at most max (0 = all).
func (r *Recorder) Traces(max int) []Trace {
	spans := r.snapshot()
	byID := map[uint64]*Trace{}
	var order []uint64 // trace IDs by last activity
	for _, sp := range spans {
		tr := byID[sp.Trace]
		if tr == nil {
			tr = &Trace{ID: sp.Trace, Start: sp.Start}
			byID[sp.Trace] = tr
		} else {
			// Move to the back of the activity order lazily via re-append;
			// dedup below.
		}
		order = append(order, sp.Trace)
		tr.Spans = append(tr.Spans, sp)
		if sp.Start.Before(tr.Start) {
			tr.Start = sp.Start
		}
		if end := sp.Start.Add(sp.Dur); end.Sub(tr.Start) > tr.Dur {
			tr.Dur = end.Sub(tr.Start)
		}
	}
	// Most recent activity last in `order`; walk backwards, dedup.
	seen := map[uint64]bool{}
	var out []Trace
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		if seen[id] {
			continue
		}
		seen[id] = true
		tr := byID[id]
		sort.Slice(tr.Spans, func(a, b int) bool { return tr.Spans[a].Start.Before(tr.Spans[b].Start) })
		out = append(out, *tr)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// Slowest returns the slowest individual spans seen (not bounded by the
// ring), at most max (0 = all retained, up to 64).
func (r *Recorder) Slowest(max int) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.slow)
	if max > 0 && max < n {
		n = max
	}
	out := make([]Span, n)
	copy(out, r.slow[:n])
	return out
}
