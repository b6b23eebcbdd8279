package telemetry

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/wire"
)

// newTestRecorder returns a recorder that classes ops as a controlet's does.
func newTestRecorder(opts Options) *Recorder { return newRecorder(controletClasses, opts) }

var controletClasses = newLayer(ClassOf)

// record accounts one answered frame for op with the given status.
func record(r *Recorder, op wire.Op, status wire.Status, d time.Duration) {
	r.RecordOp(new(wire.ConnState), &wire.Request{Op: op, Key: []byte("key-0001")}, &wire.Response{Status: status}, d)
}

func TestClassOf(t *testing.T) {
	cases := map[wire.Op]Class{
		wire.OpGet:       ClassGet,
		wire.OpPut:       ClassPut,
		wire.OpDel:       ClassDel,
		wire.OpScan:      ClassScan,
		wire.OpMGet:      ClassMGet,
		wire.OpMPut:      ClassMPut,
		wire.OpDirectGet: ClassDirectGet,
		wire.OpChainPut:  ClassOther,
		wire.OpReplPut:   ClassOther,
		wire.OpStats:     ClassOther,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, want)
		}
	}
	if !ClassGet.Read() || ClassPut.Read() {
		t.Fatal("read classification wrong")
	}
	if !ClassDirectGet.Read() {
		t.Fatal("direct-get must count as a read")
	}
}

func TestHistSnapshotQuantileAndCountAbove(t *testing.T) {
	var h metrics.Histogram
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := deltaHist(&h, new(metrics.Histogram))
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if q := s.Quantile(0.5); q < 500*time.Microsecond || q > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms", q)
	}
	if q := s.Quantile(0.99); q < 50*time.Millisecond {
		t.Errorf("p99 = %v, want ~100ms", q)
	}
	if n := s.CountAbove(50 * time.Millisecond); n != 10 {
		t.Errorf("CountAbove(50ms) = %d, want 10", n)
	}
	if n := s.CountAbove(time.Microsecond); n != 100 {
		t.Errorf("CountAbove(1µs) = %d, want 100", n)
	}
	// Merge doubles every bucket.
	m := s
	m.Buckets = append([][2]int64(nil), s.Buckets...)
	m.Merge(s)
	if m.Count != 200 || m.CountAbove(50*time.Millisecond) != 20 {
		t.Errorf("merge: count=%d above=%d", m.Count, m.CountAbove(50*time.Millisecond))
	}
	// Interleaved lists merge in order, equal buckets summed.
	x := HistSnapshot{Buckets: [][2]int64{{1, 1}, {5, 2}}}
	x.Merge(HistSnapshot{Buckets: [][2]int64{{3, 1}, {5, 1}, {9, 4}}})
	if got := fmt.Sprint(x.Buckets); got != "[[1 1] [3 1] [5 3] [9 4]]" {
		t.Errorf("merged buckets %s", got)
	}
}

func TestRecorderWindows(t *testing.T) {
	start := time.UnixMilli(1_000_000)
	r := newTestRecorder(Options{Interval: time.Second, SketchSample: 1, Start: start})

	record(r, wire.OpGet, wire.StatusOK, 2*time.Millisecond)
	record(r, wire.OpGet, wire.StatusOK, -1)
	record(r, wire.OpPut, wire.StatusErr, 5*time.Millisecond)

	// Nothing sealed before the interval elapses.
	snap := r.Snapshot(start.Add(500*time.Millisecond), Info{Node: "n1", Shard: "s0"})
	if len(snap.Windows) != 0 {
		t.Fatalf("windows sealed early: %d", len(snap.Windows))
	}
	if snap.TotalOps[ClassGet] != 2 || snap.TotalOps[ClassPut] != 1 || snap.TotalErrs[ClassPut] != 1 {
		t.Fatalf("totals wrong: %+v", snap.TotalOps)
	}

	// First window seals with the deltas.
	snap = r.Snapshot(start.Add(1100*time.Millisecond), Info{Node: "n1"})
	if len(snap.Windows) != 1 {
		t.Fatalf("want 1 window, got %d", len(snap.Windows))
	}
	w := snap.Windows[0]
	if w.Seq != 1 || w.StartMs != start.UnixMilli() || w.DurMs != 1000 {
		t.Fatalf("window meta: %+v", w)
	}
	if w.Ops[ClassGet] != 2 || w.Ops[ClassPut] != 1 || w.Errs[ClassPut] != 1 {
		t.Fatalf("window ops: %+v", w.Ops)
	}
	if w.Lat[ClassGet].Count != 1 { // only the sampled op carried latency
		t.Fatalf("lat count = %d", w.Lat[ClassGet].Count)
	}

	// An idle interval seals an empty window; deltas are all zero.
	snap = r.Snapshot(start.Add(2100*time.Millisecond), Info{Node: "n1"})
	if len(snap.Windows) != 2 {
		t.Fatalf("want 2 windows, got %d", len(snap.Windows))
	}
	if snap.Windows[1].Ops != ([ClassCount]int64{}) || snap.Windows[1].Seq != 2 {
		t.Fatalf("second window should be empty: %+v", snap.Windows[1])
	}

	// Ops in the third interval land in the third window only.
	record(r, wire.OpGet, wire.StatusOK, time.Millisecond)
	snap = r.Snapshot(start.Add(3100*time.Millisecond), Info{Node: "n1"})
	if got := snap.Windows[2].Ops[ClassGet]; got != 1 {
		t.Fatalf("third window get ops = %d", got)
	}
}

func TestRecorderIdleGapFastForward(t *testing.T) {
	start := time.UnixMilli(0)
	r := newTestRecorder(Options{Interval: time.Second, Start: start})
	record(r, wire.OpGet, wire.StatusOK, time.Millisecond)
	// An hour of idleness must not seal 3600 windows.
	snap := r.Snapshot(start.Add(time.Hour), Info{Node: "n1"})
	if len(snap.Windows) > maxWindows {
		t.Fatalf("sealed %d windows across the gap", len(snap.Windows))
	}
	// The op before the gap is still accounted for in some sealed window.
	var total int64
	for _, w := range snap.Windows {
		total += w.Ops[ClassGet]
	}
	if total != 1 {
		t.Fatalf("op lost across the gap: %d", total)
	}
	if snap.TotalOps[ClassGet] != 1 {
		t.Fatalf("cumulative total wrong")
	}
}

func TestRecorderSeqAndBootID(t *testing.T) {
	start := time.UnixMilli(0)
	r1 := newTestRecorder(Options{Interval: time.Second, Start: start})
	r2 := newTestRecorder(Options{Interval: time.Second, Start: start})
	if r1.Snapshot(start, Info{}).BootID == r2.Snapshot(start, Info{}).BootID {
		t.Fatal("boot IDs must differ between recorder instances")
	}
	s := r1.Snapshot(start.Add(3500*time.Millisecond), Info{})
	for i, w := range s.Windows {
		if w.Seq != uint64(i+1) {
			t.Fatalf("seq not dense: %+v", s.Windows)
		}
	}
}

func TestRecordZeroAllocTelemetry(t *testing.T) {
	r := newTestRecorder(Options{Interval: time.Hour, SketchSample: 1})
	var conn wire.ConnState
	req := wire.Request{Op: wire.OpGet, Key: []byte("warm-key")}
	resp := wire.Response{Value: make([]byte, 128)}
	record := func() { r.RecordOp(&conn, &req, &resp, 250*time.Microsecond) }
	record() // admit the key so steady-state touches hit it
	if n := testing.AllocsPerRun(1000, record); n != 0 {
		t.Fatalf("RecordOp allocates %.1f/op on a warm key", n)
	}
	// A cold-key stream: 4096 keys in turn through a 64-key sketch, so
	// every touch misses and evicts. One pass grows the key buffers.
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("cold-key-%05d", i))
		req.Key = keys[i]
		record()
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		req.Key = keys[i%len(keys)]
		i++
		record()
	}); n != 0 {
		t.Fatalf("RecordOp allocates %.1f/op on cold keys (the sketch's eviction path)", n)
	}
	mget := wire.Request{Op: wire.OpDirectGet}
	for _, k := range keys[:16] {
		mget.Pairs = append(mget.Pairs, wire.KV{Key: k})
	}
	if n := testing.AllocsPerRun(1000, func() { r.RecordOp(&conn, &mget, &resp, -1) }); n != 0 {
		t.Fatalf("RecordOp allocates %.1f/op on a 16-key frame", n)
	}
}

// BenchmarkTelemetryRecord times the whole hop epilogue of a GET: RecordOp
// with the sampling ServeConn applies, timed 1 in metrics.SampleLatency.
func BenchmarkTelemetryRecord(b *testing.B) {
	r := newTestRecorder(Options{Interval: time.Hour})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var conn wire.ConnState
		req := wire.Request{Op: wire.OpGet, Key: []byte("key-0001")}
		resp := wire.Response{Value: make([]byte, 128)}
		for pb.Next() {
			d := time.Duration(-1)
			if metrics.SampleLatency() {
				d = 250 * time.Microsecond
			}
			r.RecordOp(&conn, &req, &resp, d)
		}
	})
}

// BenchmarkSketchTouch times a connection's sampled touch of 32 warm keys:
// the hit path, one touch in four.
func BenchmarkSketchTouch(b *testing.B) {
	r := newTestRecorder(Options{Interval: time.Hour, SketchSample: 4})
	keys := make([][]byte, 32)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%02d", i))
		r.sketch.Touch(keys[i], 1)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var conn wire.ConnState
		i := 0
		for pb.Next() {
			r.touch(&conn, keys[i&31])
			i++
		}
	})
}

// BenchmarkSketchTouchSpread times the sketch's miss path: every touch is
// one of 8192 uniform keys, so nearly every one evicts the minimum of the
// 64 monitored keys, as a uniform workload's sampled touches do.
func BenchmarkSketchTouchSpread(b *testing.B) {
	s := NewSketch(64)
	keys := make([][]byte, 8192)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%012d", i))
		s.Touch(keys[i], 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Intn(len(keys))
		for pb.Next() {
			s.Touch(keys[i], 1)
			i = (i + 4099) % len(keys) // 4099 is prime: a permutation
		}
	})
}

// RecordOp is the one epilogue behind a controlet's dispatch and a datalet's
// direct reads: per class, which sizes it samples and which keys it touches.
func TestRecordOp(t *testing.T) {
	pairs := []wire.KV{{Key: []byte("a"), Value: []byte("1234")}, {Key: []byte("bb"), Value: []byte("1234")}}
	for _, tc := range []struct {
		name     string
		req      wire.Request
		resp     wire.Response
		class    Class
		keys     int // key-size samples, also the number of sketch touches
		vals     int // value-size samples
		touched  string
		wantsErr bool
	}{
		{name: "get", req: wire.Request{Op: wire.OpGet, Key: []byte("k")}, resp: wire.Response{Value: []byte("v")},
			class: ClassGet, keys: 1, vals: 1, touched: "k"},
		{name: "put", req: wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v")},
			class: ClassPut, keys: 1, vals: 1, touched: "k"},
		{name: "del shed", req: wire.Request{Op: wire.OpDel, Key: []byte("k")}, resp: wire.Response{Status: wire.StatusOverloaded},
			class: ClassDel, keys: 1, touched: "k", wantsErr: true},
		{name: "scan", req: wire.Request{Op: wire.OpScan, Key: []byte("k")}, class: ClassScan, keys: 1},
		{name: "mget", req: wire.Request{Op: wire.OpMGet, Pairs: pairs}, class: ClassMGet, keys: 2, touched: "bb"},
		{name: "mput", req: wire.Request{Op: wire.OpMPut, Pairs: pairs}, class: ClassMPut, keys: 2, vals: 2, touched: "bb"},
		{name: "direct get", req: wire.Request{Op: wire.OpDirectGet, Pairs: pairs}, class: ClassDirectGet, keys: 2, touched: "a"},
		{name: "direct get wrong epoch", req: wire.Request{Op: wire.OpDirectGet, Pairs: pairs[:1]},
			resp: wire.Response{Status: wire.StatusWrongEpoch}, class: ClassDirectGet, keys: 1, touched: "a"},
		{name: "chain put", req: wire.Request{Op: wire.OpChainPut, Key: []byte("k"), Value: []byte("v")}, class: ClassOther},
	} {
		r := newTestRecorder(Options{Interval: time.Hour, SketchSample: 1})
		r.RecordOp(new(wire.ConnState), &tc.req, &tc.resp, time.Millisecond)
		snap := r.Snapshot(time.Now(), Info{})
		if snap.TotalOps[tc.class] != 1 {
			t.Errorf("%s: ops %v, want one of class %s", tc.name, snap.TotalOps, tc.class)
		}
		if got := snap.TotalErrs[tc.class] == 1; got != tc.wantsErr {
			t.Errorf("%s: counted as error = %v, want %v", tc.name, got, tc.wantsErr)
		}
		var keys, vals, touches int
		for i := range snap.KeySizes {
			keys += int(snap.KeySizes[i])
			vals += int(snap.ValSizes[i])
		}
		found := tc.touched == ""
		for _, hk := range snap.HotKeys {
			touches += int(hk.Count)
			found = found || hk.Key == tc.touched
		}
		wantTouches := tc.keys
		if tc.class == ClassScan {
			wantTouches = 0 // a range start is not a key access
		}
		if keys != tc.keys || vals != tc.vals || touches != wantTouches || !found {
			t.Errorf("%s: %d key sizes, %d value sizes, %d touches (%v), want %d, %d, %d incl. %q",
				tc.name, keys, vals, touches, snap.HotKeys, tc.keys, tc.vals, wantTouches, tc.touched)
		}
	}
}

// A layer's class table decides a window's classes; its series sum the live
// recorders and keep what closed ones counted.
func TestLayerTableAndRetiredTotals(t *testing.T) {
	l := NewLayer("layertest", func(op wire.Op) Class {
		if op == wire.OpDirectGet {
			return ClassDirectGet
		}
		return ClassOther
	})
	r1 := l.NewRecorder(Options{Interval: time.Hour, SketchSample: 1})
	record(r1, wire.OpGet, wire.StatusOK, time.Millisecond)
	r1.RecordOp(new(wire.ConnState), &wire.Request{Op: wire.OpDirectGet, Pairs: []wire.KV{{Key: []byte("d")}}}, &wire.Response{}, -1)
	snap := r1.Snapshot(time.Now(), Info{})
	if snap.TotalOps[ClassOther] != 1 || snap.TotalOps[ClassDirectGet] != 1 || snap.TotalOps[ClassGet] != 0 {
		t.Fatalf("classes by the layer's table: %v", snap.TotalOps)
	}
	if len(snap.HotKeys) != 1 || snap.HotKeys[0].Key != "d" {
		t.Fatalf("only the direct read is a client-entry key access: %v", snap.HotKeys)
	}

	r2 := l.NewRecorder(Options{Interval: time.Hour})
	record(r2, wire.OpGet, wire.StatusOK, -1)
	for _, close := range []func(){func() {}, r1.Close, r1.Close} {
		close()
		if n, h := l.count(wire.OpGet), l.latency(wire.OpGet); n != 2 || h.Count() != 1 {
			t.Fatalf("layer GET count %d, latency count %d; want 2, 1", n, h.Count())
		}
	}
	var prom strings.Builder
	if err := metrics.Default.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE bespokv_layertest_ops_total counter\n",
		"\nbespokv_layertest_ops_total{op=\"GET\"} 2\n",
		"\nbespokv_layertest_op_seconds_count{op=\"GET\"} 1\n",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// Recording, scrapes and a Close at once: the layer's totals come out exact.
func TestLayerConcurrentScrapeAndClose(t *testing.T) {
	l := newLayer(ClassOf)
	rs := []*Recorder{l.NewRecorder(Options{}), l.NewRecorder(Options{})}
	var wg sync.WaitGroup
	for _, r := range rs {
		wg.Add(1)
		go func(r *Recorder) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				record(r, wire.OpGet, wire.StatusOK, time.Microsecond)
			}
		}(r)
	}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for i := 0; i < 100; i++ {
			l.count(wire.OpGet)
			l.latency(wire.OpGet)
		}
	}()
	wg.Wait()
	rs[0].Close()
	<-scraped
	if n, h := l.count(wire.OpGet), l.latency(wire.OpGet); n != 2000 || h.Count() != 2000 {
		t.Fatalf("layer GET count %d, latency count %d; want 2000 each", n, h.Count())
	}
}
