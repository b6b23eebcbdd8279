// Package telemetry is the cluster's workload-introspection plane: per-shard
// op rates, read/write mix, key/value size and latency distributions recorded
// on the zero-alloc hot path at controlets and datalets, windowed into
// fixed-interval delta snapshots; a bounded-memory hot-key sketch; an SLO
// engine with multi-window burn-rate alerting; and a coordinator-side
// aggregator that merges node snapshots into a cluster-wide view served as
// /clusterz and rendered by `bespokv-cli top`. It is the signal source the
// workload autopilot (ROADMAP item 5) will act on.
//
// Recording contract: Record and Touch are safe for concurrent use and
// allocation-free in steady state (Touch allocates only when the sketch
// admits a brand-new key, which is bounded by the sketch capacity and the
// eviction rate). Roll, Snapshot and everything downstream are control-path.
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/wire"
)

// Class partitions operations for workload accounting. Client-entry ops get
// their own class; internal replication traffic (chain forwards, async
// propagation, recovery streams) collapses into ClassOther so shard-level
// rates never double-count a client op and its replication fan-out.
type Class uint8

const (
	ClassGet Class = iota
	ClassPut
	ClassDel
	ClassScan
	ClassMGet
	ClassMPut
	ClassDirectGet
	ClassOther
	// ClassCount sizes per-class arrays.
	ClassCount
)

// String returns the class mnemonic.
func (c Class) String() string {
	switch c {
	case ClassGet:
		return "get"
	case ClassPut:
		return "put"
	case ClassDel:
		return "del"
	case ClassScan:
		return "scan"
	case ClassMGet:
		return "mget"
	case ClassMPut:
		return "mput"
	case ClassDirectGet:
		return "direct-get"
	default:
		return "other"
	}
}

// Read reports whether the class is a read for read/write-mix accounting.
func (c Class) Read() bool {
	switch c {
	case ClassGet, ClassScan, ClassMGet, ClassDirectGet:
		return true
	}
	return false
}

// Write reports whether the class is a client write.
func (c Class) Write() bool {
	return c == ClassPut || c == ClassDel || c == ClassMPut
}

// ClassOf maps a wire op to its accounting class. Internal ops (chain,
// repl, handoff, epoch leases, exports) map to ClassOther.
func ClassOf(op wire.Op) Class {
	switch op {
	case wire.OpGet:
		return ClassGet
	case wire.OpPut:
		return ClassPut
	case wire.OpDel:
		return ClassDel
	case wire.OpScan:
		return ClassScan
	case wire.OpMGet:
		return ClassMGet
	case wire.OpMPut:
		return ClassMPut
	case wire.OpDirectGet:
		return ClassDirectGet
	default:
		return ClassOther
	}
}

// Latency histogram layout: logarithmic µs buckets, 25 exponents
// (1µs .. ~17s) × 4 sub-buckets, so quantile resolution is ~25% — tight
// enough for burn-rate math against bucket-aligned thresholds while keeping
// a window capture at 100 int64s.
const (
	latExps    = 25
	latSubs    = 4
	latBuckets = latExps * latSubs
)

func latBucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	exp := bits.Len64(uint64(us)) - 1
	if exp >= latExps {
		exp = latExps - 1
	}
	base := int64(1) << exp
	sub := int((us - base) * latSubs / base)
	if sub >= latSubs {
		sub = latSubs - 1
	}
	return exp*latSubs + sub
}

// latBucketLower returns the inclusive lower bound of bucket b.
func latBucketLower(b int) time.Duration {
	exp := b / latSubs
	sub := b % latSubs
	base := int64(1) << exp
	return time.Duration(base+base*int64(sub)/latSubs) * time.Microsecond
}

// latBucketMid returns the midpoint of bucket b, used for quantiles.
func latBucketMid(b int) time.Duration {
	exp := b / latSubs
	sub := b % latSubs
	base := int64(1) << exp
	us := base + base*int64(sub)/latSubs + base/(2*latSubs)
	return time.Duration(us) * time.Microsecond
}

// Size histogram layout: one bucket per power of two, 1B .. 16MB+.
const sizeBuckets = 25

func sizeBucketOf(n int) int {
	if n < 1 {
		n = 1
	}
	b := bits.Len64(uint64(n)) - 1
	if b >= sizeBuckets {
		b = sizeBuckets - 1
	}
	return b
}

// hist is the live (hot-path) latency histogram: lock-free atomic buckets.
type hist struct {
	buckets [latBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64
}

func (h *hist) observe(d time.Duration) {
	h.buckets[latBucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// histCapture is a plain-int64 copy of a hist, used for window deltas.
type histCapture struct {
	buckets [latBuckets]int64
	count   int64
	sum     int64
	max     int64
}

func (h *hist) capture() histCapture {
	var c histCapture
	for i := range h.buckets {
		c.buckets[i] = h.buckets[i].Load()
	}
	c.count = h.count.Load()
	c.sum = h.sum.Load()
	c.max = h.max.Load()
	return c
}

// HistSnapshot is the wire form of a histogram (cumulative or window
// delta): sparse [bucket, count] pairs sorted by bucket index.
type HistSnapshot struct {
	Count   int64      `json:"count,omitempty"`
	SumNs   int64      `json:"sum_ns,omitempty"`
	MaxNs   int64      `json:"max_ns,omitempty"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// delta builds the sparse snapshot of cur - prev.
func deltaHist(cur, prev histCapture) HistSnapshot {
	s := HistSnapshot{
		Count: cur.count - prev.count,
		SumNs: cur.sum - prev.sum,
		MaxNs: cur.max, // max is cumulative; good enough for window display
	}
	for i := range cur.buckets {
		if d := cur.buckets[i] - prev.buckets[i]; d != 0 {
			s.Buckets = append(s.Buckets, [2]int64{int64(i), d})
		}
	}
	return s
}

// Merge adds o into h (bucket-wise).
func (h *HistSnapshot) Merge(o HistSnapshot) {
	h.Count += o.Count
	h.SumNs += o.SumNs
	if o.MaxNs > h.MaxNs {
		h.MaxNs = o.MaxNs
	}
	if len(o.Buckets) == 0 {
		return
	}
	merged := make(map[int64]int64, len(h.Buckets)+len(o.Buckets))
	for _, b := range h.Buckets {
		merged[b[0]] += b[1]
	}
	for _, b := range o.Buckets {
		merged[b[0]] += b[1]
	}
	h.Buckets = h.Buckets[:0]
	for i := int64(0); i < latBuckets; i++ {
		if n := merged[i]; n != 0 {
			h.Buckets = append(h.Buckets, [2]int64{i, n})
		}
	}
}

// Quantile returns the approximate q-quantile (q clamped to (0,1]).
func (h HistSnapshot) Quantile(q float64) time.Duration {
	total := int64(0)
	for _, b := range h.Buckets {
		total += b[1]
	}
	if total == 0 {
		return 0
	}
	if q >= 1 {
		return time.Duration(h.MaxNs)
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b[1]
		if cum >= target {
			return latBucketMid(int(b[0]))
		}
	}
	return time.Duration(h.MaxNs)
}

// Mean returns the average of the captured observations.
func (h HistSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNs / h.Count)
}

// CountAbove returns how many observations fell in buckets whose lower
// bound is at or above d — the burn-rate "bad event" count. Resolution is
// one sub-bucket (~25%); choose SLO thresholds accordingly.
func (h HistSnapshot) CountAbove(d time.Duration) int64 {
	var n int64
	for _, b := range h.Buckets {
		if latBucketLower(int(b[0])) >= d {
			n += b[1]
		}
	}
	return n
}

// Window is one sealed fixed-interval slice of a node's workload: per-class
// op/error deltas and latency-histogram deltas against the previous window.
type Window struct {
	// Seq increases by one per sealed window within a boot; a restart
	// resets it (and changes the snapshot's BootID).
	Seq     uint64 `json:"seq"`
	StartMs int64  `json:"start_ms"`
	DurMs   int64  `json:"dur_ms"`
	// Ops and Errs are per-class deltas for this window.
	Ops  [ClassCount]int64 `json:"ops"`
	Errs [ClassCount]int64 `json:"errs"`
	// Lat carries per-class latency deltas. Latency is sampled on the hot
	// path (see metrics.SampleLatency), so Lat counts are a uniform subset
	// of Ops; rates use Ops, distributions use Lat.
	Lat [ClassCount]HistSnapshot `json:"lat"`
}

// Empty reports whether the window recorded no operations at all.
func (w Window) Empty() bool {
	for _, n := range w.Ops {
		if n != 0 {
			return false
		}
	}
	return true
}

// Info identifies the reporting process for a snapshot; the recorder itself
// is identity-unaware so one implementation serves controlets and datalets.
type Info struct {
	Node  string `json:"node"`
	Shard string `json:"shard,omitempty"`
	Role  string `json:"role,omitempty"`
	Mode  string `json:"mode,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// NodeSnapshot is one node's report to the aggregator: identity, cumulative
// totals, recent sealed windows (delta-encoded), and the hot-key top-K.
type NodeSnapshot struct {
	Info
	// BootID changes when the process restarts; the aggregator uses it to
	// detect counter resets so cumulative totals never go "backwards".
	BootID uint64 `json:"boot_id"`
	AtMs   int64  `json:"at_ms"`
	// IntervalMs is the window width this recorder seals at.
	IntervalMs int64 `json:"interval_ms"`
	// TotalOps and TotalErrs are cumulative since boot.
	TotalOps  [ClassCount]int64 `json:"total_ops"`
	TotalErrs [ClassCount]int64 `json:"total_errs"`
	// KeySizes and ValSizes are cumulative power-of-two byte-size counts
	// (bucket i covers [2^i, 2^(i+1)) bytes).
	KeySizes [sizeBuckets]int64 `json:"key_sizes"`
	ValSizes [sizeBuckets]int64 `json:"val_sizes"`
	// Windows are the most recent sealed windows, oldest first.
	Windows []Window `json:"windows,omitempty"`
	// HotKeys is the sketch's current top-K.
	HotKeys []HotKey `json:"hot_keys,omitempty"`
}

// maxWindows bounds the sealed-window ring (and therefore how much history
// one snapshot re-sends; resending is idempotent — the aggregator keeps only
// the latest snapshot per node and merges on demand).
const maxWindows = 16

var bootSeq atomic.Uint64

func newBootID() uint64 {
	return uint64(time.Now().UnixNano())<<8 | (bootSeq.Add(1) & 0xff)
}

// Options configures a Recorder.
type Options struct {
	// Interval is the window width (default 1s).
	Interval time.Duration
	// SketchCap bounds the hot-key sketch (default 64 entries).
	SketchCap int
	// SketchSample touches the sketch for 1-in-N recorded keys, with
	// weight N, to keep mutex pressure off the hot path (default 4;
	// tests use 1 for exact counts).
	SketchSample int
	// BootID overrides the generated boot identity (tests).
	BootID uint64
	// Start anchors the first window (default time.Now at construction).
	Start time.Time
}

// Recorder accumulates one process's workload stats. Record and Touch are
// the hot path; Roll and Snapshot are control-path.
type Recorder struct {
	interval time.Duration
	bootID   uint64
	sketch   *Sketch
	sampleN  uint32
	tick     atomic.Uint32

	ops  [ClassCount]atomic.Int64
	errs [ClassCount]atomic.Int64
	lat  [ClassCount]hist

	keySizes [sizeBuckets]atomic.Int64
	valSizes [sizeBuckets]atomic.Int64

	mu       sync.Mutex
	seq      uint64
	winStart time.Time
	prev     [ClassCount]histCapture
	prevOps  [ClassCount]int64
	prevErrs [ClassCount]int64
	windows  []Window
}

// NewRecorder returns a recorder sealing windows every opts.Interval.
func NewRecorder(opts Options) *Recorder {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.SketchCap <= 0 {
		opts.SketchCap = 64
	}
	if opts.SketchSample <= 0 {
		opts.SketchSample = 4
	}
	if opts.BootID == 0 {
		opts.BootID = newBootID()
	}
	if opts.Start.IsZero() {
		opts.Start = time.Now()
	}
	return &Recorder{
		interval: opts.Interval,
		bootID:   opts.BootID,
		sketch:   NewSketch(opts.SketchCap),
		sampleN:  uint32(opts.SketchSample),
		winStart: opts.Start,
	}
}

// Interval returns the window width.
func (r *Recorder) Interval() time.Duration { return r.interval }

// Record accounts one operation: class counters always; key/value sizes
// when the lengths are >= 0; latency when d >= 0 (callers pass -1 for
// unsampled ops, mirroring the metrics latency-sampling contract).
func (r *Recorder) Record(class Class, keyLen, valLen int, d time.Duration, isErr bool) {
	if class >= ClassCount {
		class = ClassOther
	}
	r.ops[class].Add(1)
	if isErr {
		r.errs[class].Add(1)
	}
	if keyLen >= 0 {
		r.keySizes[sizeBucketOf(keyLen)].Add(1)
	}
	if valLen >= 0 {
		r.valSizes[sizeBucketOf(valLen)].Add(1)
	}
	if d >= 0 {
		r.lat[class].observe(d)
	}
}

// RecordOp accounts one answered frame, the epilogue of a hop: the class
// counter always (internal replication ops collapse to ClassOther), latency
// when the op was timed (d >= 0), and for client-entry classes the key and
// value sizes plus a hot-key sketch touch per key — a multi-op frame is one
// op of its class and one size sample and touch per pair, whether a controlet
// answered it (ClassMGet, ClassMPut) or a datalet did directly
// (ClassDirectGet). All of it is atomics plus a sampled sketch touch.
//
// Err, Unavailable and Overloaded answers spend the availability budget — the
// SLO burn engine must see an overloaded shard as burning, not healthy.
// WrongEpoch does not: it is a routing miss that heals through the controlet
// fallback.
func (r *Recorder) RecordOp(req *wire.Request, resp *wire.Response, d time.Duration) {
	class := ClassOf(req.Op)
	isErr := resp.Status == wire.StatusErr || resp.Status == wire.StatusUnavailable ||
		resp.Status == wire.StatusOverloaded
	keyLen, valLen := -1, -1
	switch class {
	case ClassGet:
		keyLen, valLen = len(req.Key), len(resp.Value)
	case ClassPut:
		keyLen, valLen = len(req.Key), len(req.Value)
	case ClassDel, ClassScan:
		keyLen = len(req.Key)
	}
	r.Record(class, keyLen, valLen, d, isErr)
	switch class {
	case ClassGet, ClassPut, ClassDel:
		r.Touch(req.Key)
	case ClassMGet, ClassDirectGet, ClassMPut:
		for i := range req.Pairs {
			kv := &req.Pairs[i]
			valLen := -1 // a read frame's pairs carry keys only
			if class == ClassMPut {
				valLen = len(kv.Value)
			}
			r.RecordKV(len(kv.Key), valLen)
			r.Touch(kv.Key)
		}
	}
}

// RecordKV accounts one key/value pair's sizes without counting an op —
// multi-op frames call Record once for the frame and RecordKV per pair.
func (r *Recorder) RecordKV(keyLen, valLen int) {
	if keyLen >= 0 {
		r.keySizes[sizeBucketOf(keyLen)].Add(1)
	}
	if valLen >= 0 {
		r.valSizes[sizeBucketOf(valLen)].Add(1)
	}
}

// Touch feeds one key access into the hot-key sketch, sampled 1-in-N with
// weight N so heavy hitters keep their relative mass.
func (r *Recorder) Touch(key []byte) {
	n := r.sampleN
	if n > 1 && r.tick.Add(1)%n != 0 {
		return
	}
	r.sketch.Touch(key, int64(n))
}

// Roll seals every window whose interval has fully elapsed by now. Deltas
// are computed against the previous capture, so ops during an idle gap that
// skipped ahead land in the first window sealed after the gap.
func (r *Recorder) Roll(now time.Time) {
	r.mu.Lock()
	r.rollLocked(now)
	r.mu.Unlock()
}

func (r *Recorder) rollLocked(now time.Time) {
	// Fast-forward across long idle gaps: seal at most maxWindows windows
	// per roll, dropping the unobserved span (its deltas are zero anyway).
	if behind := now.Sub(r.winStart); behind > time.Duration(maxWindows+1)*r.interval {
		skip := (behind - time.Duration(maxWindows)*r.interval) / r.interval
		r.winStart = r.winStart.Add(skip * r.interval)
	}
	for !now.Before(r.winStart.Add(r.interval)) {
		w := Window{
			Seq:     r.seq + 1,
			StartMs: r.winStart.UnixMilli(),
			DurMs:   r.interval.Milliseconds(),
		}
		for c := 0; c < int(ClassCount); c++ {
			cur := r.lat[c].capture()
			w.Lat[c] = deltaHist(cur, r.prev[c])
			r.prev[c] = cur
			ops := r.ops[c].Load()
			errs := r.errs[c].Load()
			w.Ops[c] = ops - r.prevOps[c]
			w.Errs[c] = errs - r.prevErrs[c]
			r.prevOps[c] = ops
			r.prevErrs[c] = errs
		}
		r.seq++
		r.windows = append(r.windows, w)
		if len(r.windows) > maxWindows {
			r.windows = r.windows[len(r.windows)-maxWindows:]
		}
		r.winStart = r.winStart.Add(r.interval)
	}
}

// Snapshot rolls any elapsed windows and returns the node's report.
func (r *Recorder) Snapshot(now time.Time, info Info) NodeSnapshot {
	r.mu.Lock()
	r.rollLocked(now)
	snap := NodeSnapshot{
		Info:       info,
		BootID:     r.bootID,
		AtMs:       now.UnixMilli(),
		IntervalMs: r.interval.Milliseconds(),
		Windows:    append([]Window(nil), r.windows...),
	}
	r.mu.Unlock()
	for c := 0; c < int(ClassCount); c++ {
		snap.TotalOps[c] = r.ops[c].Load()
		snap.TotalErrs[c] = r.errs[c].Load()
	}
	for i := 0; i < sizeBuckets; i++ {
		snap.KeySizes[i] = r.keySizes[i].Load()
		snap.ValSizes[i] = r.valSizes[i].Load()
	}
	snap.HotKeys = r.sketch.TopK(16)
	return snap
}
