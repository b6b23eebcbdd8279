// Package telemetry is the cluster's workload-introspection plane: per-shard
// op rates, read/write mix, key/value size and latency distributions recorded
// on the zero-alloc hot path at controlets and datalets, windowed into
// fixed-interval delta snapshots; a bounded-memory hot-key sketch; an SLO
// engine with multi-window burn-rate alerting; and a coordinator-side
// aggregator that merges node snapshots into a cluster-wide view served as
// /clusterz and rendered by `bespokv-cli top`. It is the signal source the
// workload autopilot (ROADMAP item 5) will act on.
//
// Recording contract: RecordOp and Count are safe for concurrent use and
// allocation-free once the sketch's key buffers have grown to the keys it
// sees (an evicted entry reuses its buffer). Snapshot and everything
// downstream are control-path.
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/metrics"
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

// HistSnapshot is the wire form of a histogram (cumulative or window
// delta): sparse [bucket, count] pairs sorted by bucket index.
type HistSnapshot struct {
	Count   int64      `json:"count,omitempty"`
	SumNs   int64      `json:"sum_ns,omitempty"`
	MaxNs   int64      `json:"max_ns,omitempty"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// deltaHist builds the sparse snapshot of cur - prev.
func deltaHist(cur, prev *metrics.Histogram) HistSnapshot {
	s := HistSnapshot{
		Count: cur.Count() - prev.Count(),
		SumNs: int64(cur.Sum() - prev.Sum()),
		MaxNs: int64(cur.Max()), // max is cumulative; good enough for window display
	}
	for i := 0; i < metrics.HistBuckets; i++ {
		if d := cur.Bucket(i) - prev.Bucket(i); d != 0 {
			s.Buckets = append(s.Buckets, [2]int64{int64(i), d})
		}
	}
	return s
}

// Merge adds o into h bucket-wise: one pass over the two sorted lists.
func (h *HistSnapshot) Merge(o HistSnapshot) {
	h.Count += o.Count
	h.SumNs += o.SumNs
	if o.MaxNs > h.MaxNs {
		h.MaxNs = o.MaxNs
	}
	if len(o.Buckets) == 0 {
		return
	}
	a, b := h.Buckets, o.Buckets
	out := make([][2]int64, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0][0] < b[0][0]:
			out, a = append(out, a[0]), a[1:]
		case len(a) == 0 || b[0][0] < a[0][0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, [2]int64{a[0][0], a[0][1] + b[0][1]}), a[1:], b[1:]
		}
	}
	h.Buckets = out
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
			return metrics.BucketMid(int(b[0]))
		}
	}
	return time.Duration(h.MaxNs)
}

// CountAbove returns how many observations fell in buckets whose lower
// bound is at or above d — the burn-rate "bad event" count. Resolution is
// one sub-bucket (1/8 of a power of two); choose SLO thresholds accordingly.
func (h HistSnapshot) CountAbove(d time.Duration) int64 {
	var n int64
	for _, b := range h.Buckets {
		if metrics.BucketLower(int(b[0])) >= d {
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
	// path (see metrics.Sampler), so Lat counts are a uniform subset
	// of Ops; rates use Ops, distributions use Lat.
	Lat [ClassCount]HistSnapshot `json:"lat"`
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
	// SketchSample touches the sketch for 1-in-N recorded keys of each
	// served connection, with weight N, to keep mutex pressure off the
	// hot path (default 4; tests use 1 for exact counts).
	SketchSample int
	// Start anchors the first window (default time.Now at construction).
	Start time.Time
}

// Recorder is the per-op record of one server or client, the one thing a
// hop's epilogue stamps: per wire op a count, errors and a latency
// histogram, plus sizes and hot keys of client-entry ops. Windows and
// snapshots derive classes through the recorder's Layer.
type Recorder struct {
	layer    *Layer
	interval time.Duration
	bootID   uint64
	sketch   *Sketch
	sampleN  uint32

	ops  [wire.OpMax + 1]atomic.Int64
	errs [wire.OpMax + 1]atomic.Int64
	lat  [wire.OpMax + 1]metrics.Histogram

	keySizes [sizeBuckets]atomic.Int64
	valSizes [sizeBuckets]atomic.Int64

	mu       sync.Mutex
	seq      uint64
	winStart time.Time
	prevLat  [ClassCount]*metrics.Histogram
	prevOps  [ClassCount]int64
	prevErrs [ClassCount]int64
	windows  []Window
}

func newRecorder(l *Layer, opts Options) *Recorder {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.SketchSample <= 0 {
		opts.SketchSample = 4
	}
	if opts.Start.IsZero() {
		opts.Start = time.Now()
	}
	r := &Recorder{
		layer:    l,
		interval: opts.Interval,
		bootID:   newBootID(),
		sketch:   NewSketch(64),
		sampleN:  uint32(opts.SketchSample),
		winStart: opts.Start,
	}
	for c := range r.prevLat {
		r.prevLat[c] = new(metrics.Histogram)
	}
	return r
}

// Count accounts one op by its code alone: its counter, and its latency
// when it was timed (d >= 0; callers pass -1 for unsampled ops, see
// metrics.Sampler). It is the whole record of a client op. An op code
// off the table is counted as NOP.
func (r *Recorder) Count(op wire.Op, d time.Duration) {
	if op > wire.OpMax {
		op = wire.OpNop
	}
	r.ops[op].Add(1)
	if d >= 0 {
		r.lat[op].Observe(d)
	}
}

// RecordOp accounts one answered frame, the epilogue of a hop: Count, an
// error when the answer spent the availability budget, and for client-entry
// classes the key and value sizes plus a hot-key sketch touch per key — a
// multi-op frame is one op and one size sample and touch per pair, whether a
// controlet answered it (ClassMGet, ClassMPut) or a datalet did directly
// (ClassDirectGet). All of it is atomics plus a sketch touch sampled off
// conn's tick: 1 in SketchSample keys of each connection.
//
// Err, Unavailable and Overloaded answers spend the availability budget — the
// SLO burn engine must see an overloaded shard as burning, not healthy.
// WrongEpoch does not: it is a routing miss that heals through the controlet
// fallback.
func (r *Recorder) RecordOp(conn *wire.ConnState, req *wire.Request, resp *wire.Response, d time.Duration) {
	op := req.Op
	if op > wire.OpMax {
		op = wire.OpNop
	}
	r.Count(op, d)
	if resp.Status == wire.StatusErr || resp.Status == wire.StatusUnavailable ||
		resp.Status == wire.StatusOverloaded {
		r.errs[op].Add(1)
	}
	switch class := r.layer.classOf[op]; class {
	case ClassGet:
		r.recordKV(len(req.Key), len(resp.Value))
		r.touch(conn, req.Key)
	case ClassPut:
		r.recordKV(len(req.Key), len(req.Value))
		r.touch(conn, req.Key)
	case ClassDel:
		r.recordKV(len(req.Key), -1)
		r.touch(conn, req.Key)
	case ClassScan:
		r.recordKV(len(req.Key), -1) // a range start is not a key access
	case ClassMGet, ClassDirectGet, ClassMPut:
		// A read frame's pairs carry keys only; sizes are added once per
		// run of pairs in one bucket (keys of one length are the rule).
		keys := sizeRun{hist: &r.keySizes}
		vals := sizeRun{hist: &r.valSizes}
		for i := range req.Pairs {
			kv := &req.Pairs[i]
			keys.add(sizeBucketOf(len(kv.Key)))
			if class == ClassMPut {
				vals.add(sizeBucketOf(len(kv.Value)))
			}
			r.touch(conn, kv.Key)
		}
		keys.flush()
		vals.flush()
	}
}

// recordKV accounts one key/value pair's sizes; a negative length is none.
func (r *Recorder) recordKV(keyLen, valLen int) {
	r.keySizes[sizeBucketOf(keyLen)].Add(1)
	if valLen >= 0 {
		r.valSizes[sizeBucketOf(valLen)].Add(1)
	}
}

// sizeRun adds a frame's size samples to hist one run of equal buckets at
// a time: one atomic add per run, not one per pair.
type sizeRun struct {
	hist      *[sizeBuckets]atomic.Int64
	bucket, n int
}

func (s *sizeRun) add(bucket int) {
	if s.n > 0 && bucket != s.bucket {
		s.flush()
	}
	s.bucket = bucket
	s.n++
}

func (s *sizeRun) flush() {
	if s.n > 0 {
		s.hist[s.bucket].Add(int64(s.n))
		s.n = 0
	}
}

// touch feeds one key access into the hot-key sketch, sampled 1-in-N off
// the connection's tick with weight N so heavy hitters keep their relative
// mass.
func (r *Recorder) touch(conn *wire.ConnState, key []byte) {
	n := r.sampleN
	if n > 1 {
		if conn.Tick++; conn.Tick%n != 0 {
			return
		}
	}
	r.sketch.Touch(key, int64(n))
}

// rollLocked seals every window whose interval has fully elapsed by now.
// Deltas are computed against the previous capture, so ops during an idle
// gap that skipped ahead land in the first window sealed after the gap.
func (r *Recorder) rollLocked(now time.Time) {
	// Fast-forward across long idle gaps: seal at most maxWindows windows
	// per roll, dropping the unobserved span (its deltas are zero anyway).
	if behind := now.Sub(r.winStart); behind > time.Duration(maxWindows+1)*r.interval {
		skip := (behind - time.Duration(maxWindows)*r.interval) / r.interval
		r.winStart = r.winStart.Add(skip * r.interval)
	}
	if now.Before(r.winStart.Add(r.interval)) {
		return
	}
	var lat [ClassCount]*metrics.Histogram
	for c := range lat {
		lat[c] = new(metrics.Histogram)
	}
	for op := range r.lat {
		lat[r.layer.classOf[op]].Merge(&r.lat[op])
	}
	ops, errs := r.totals()
	for !now.Before(r.winStart.Add(r.interval)) {
		w := Window{
			Seq:     r.seq + 1,
			StartMs: r.winStart.UnixMilli(),
			DurMs:   r.interval.Milliseconds(),
		}
		for c := range lat {
			w.Lat[c] = deltaHist(lat[c], r.prevLat[c])
			w.Ops[c] = ops[c] - r.prevOps[c]
			w.Errs[c] = errs[c] - r.prevErrs[c]
		}
		r.prevLat, r.prevOps, r.prevErrs = lat, ops, errs
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
	snap.TotalOps, snap.TotalErrs = r.totals()
	for i := 0; i < sizeBuckets; i++ {
		snap.KeySizes[i] = r.keySizes[i].Load()
		snap.ValSizes[i] = r.valSizes[i].Load()
	}
	snap.HotKeys = r.sketch.TopK(16)
	return snap
}

// totals sums the per-op counters into the recorder's classes.
func (r *Recorder) totals() (ops, errs [ClassCount]int64) {
	for op := range r.ops {
		c := r.layer.classOf[op]
		ops[c] += r.ops[op].Load()
		errs[c] += r.errs[op].Load()
	}
	return ops, errs
}
