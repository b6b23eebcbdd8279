package telemetry

import (
	"fmt"
	"testing"
	"time"

	"bespokv/internal/wire"
)

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
	if !ClassGet.Read() || ClassPut.Read() || !ClassPut.Write() || ClassGet.Write() {
		t.Fatal("read/write classification wrong")
	}
	if !ClassDirectGet.Read() {
		t.Fatal("direct-get must count as a read")
	}
}

func TestLatBuckets(t *testing.T) {
	for _, d := range []time.Duration{
		0, time.Microsecond, 3 * time.Microsecond, time.Millisecond,
		5 * time.Millisecond, time.Second, 20 * time.Second, time.Hour,
	} {
		b := latBucketOf(d)
		if b < 0 || b >= latBuckets {
			t.Fatalf("bucket %d out of range for %v", b, d)
		}
		lo := latBucketLower(b)
		if d >= time.Microsecond && d < 17*time.Second {
			if d < lo {
				t.Errorf("%v below its bucket lower bound %v", d, lo)
			}
		}
	}
	// Monotone lower bounds.
	for b := 1; b < latBuckets; b++ {
		if latBucketLower(b) < latBucketLower(b-1) {
			t.Fatalf("lower bounds not monotone at %d", b)
		}
	}
}

func TestHistSnapshotQuantileAndCountAbove(t *testing.T) {
	var h hist
	for i := 0; i < 90; i++ {
		h.observe(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.observe(100 * time.Millisecond)
	}
	s := deltaHist(h.capture(), histCapture{})
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
}

func TestRecorderWindows(t *testing.T) {
	start := time.UnixMilli(1_000_000)
	r := NewRecorder(Options{Interval: time.Second, SketchSample: 1, Start: start})

	r.Record(ClassGet, 8, 100, 2*time.Millisecond, false)
	r.Record(ClassGet, 8, 100, -1, false)
	r.Record(ClassPut, 8, 256, 5*time.Millisecond, true)

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
	if !snap.Windows[1].Empty() || snap.Windows[1].Seq != 2 {
		t.Fatalf("second window should be empty: %+v", snap.Windows[1])
	}

	// Ops in the third interval land in the third window only.
	r.Record(ClassGet, 8, 0, time.Millisecond, false)
	snap = r.Snapshot(start.Add(3100*time.Millisecond), Info{Node: "n1"})
	if got := snap.Windows[2].Ops[ClassGet]; got != 1 {
		t.Fatalf("third window get ops = %d", got)
	}
}

func TestRecorderIdleGapFastForward(t *testing.T) {
	start := time.UnixMilli(0)
	r := NewRecorder(Options{Interval: time.Second, Start: start})
	r.Record(ClassGet, 4, 4, time.Millisecond, false)
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
	r1 := NewRecorder(Options{Interval: time.Second, Start: start})
	r2 := NewRecorder(Options{Interval: time.Second, Start: start})
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
	r := NewRecorder(Options{Interval: time.Hour, SketchSample: 1})
	key := []byte("warm-key")
	r.Touch(key) // admit the key so steady-state touches hit the map
	if n := testing.AllocsPerRun(1000, func() {
		r.Record(ClassGet, 8, 128, 250*time.Microsecond, false)
	}); n != 0 {
		t.Fatalf("Record allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		r.Touch(key)
	}); n != 0 {
		t.Fatalf("Touch allocates %.1f/op on a warm key", n)
	}
}

func BenchmarkTelemetryRecord(b *testing.B) {
	r := NewRecorder(Options{Interval: time.Hour})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Record(ClassGet, 8, 128, 250*time.Microsecond, false)
		}
	})
}

func BenchmarkSketchTouch(b *testing.B) {
	r := NewRecorder(Options{Interval: time.Hour, SketchSample: 4})
	keys := make([][]byte, 32)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%02d", i))
		r.Touch(keys[i])
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r.Touch(keys[i&31])
			i++
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
		r := NewRecorder(Options{Interval: time.Hour, SketchSample: 1})
		r.RecordOp(&tc.req, &tc.resp, time.Millisecond)
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
