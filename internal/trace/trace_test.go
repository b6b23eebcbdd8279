package trace

import (
	"sync"
	"testing"
	"time"
)

func TestSampleRate(t *testing.T) {
	old := SampleEvery()
	defer SetSampleEvery(old)

	SetSampleEvery(1)
	for i := 0; i < 10; i++ {
		if Sample() == 0 {
			t.Fatal("SetSampleEvery(1) must trace every request")
		}
	}

	SetSampleEvery(0)
	for i := 0; i < 10; i++ {
		if Sample() != 0 {
			t.Fatal("SetSampleEvery(0) must disable tracing")
		}
	}

	SetSampleEvery(8)
	hits := 0
	for i := 0; i < 8000; i++ {
		if Sample() != 0 {
			hits++
		}
	}
	if hits < 900 || hits > 1100 {
		t.Fatalf("1/8 sampling over 8000 calls hit %d times", hits)
	}
}

func TestSampleIDsNonzeroAndDistinct(t *testing.T) {
	old := SampleEvery()
	defer SetSampleEvery(old)
	SetSampleEvery(1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := Sample()
		if id == 0 {
			t.Fatal("sampled ID must be nonzero")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %x", id)
		}
		seen[id] = true
	}
}

func TestRecorderGroupsTraces(t *testing.T) {
	r := NewRecorder(128)
	base := time.Now()
	r.Record(7, "client", "client.PUT", base, 5*time.Millisecond, "")
	r.Record(7, "s0-r0", "controlet.PUT", base.Add(time.Millisecond), 3*time.Millisecond, "")
	r.Record(7, "s0-r0-datalet", "datalet.PUT", base.Add(2*time.Millisecond), time.Millisecond, "")
	r.Record(9, "client", "client.GET", base.Add(10*time.Millisecond), time.Millisecond, "not found")

	traces := r.Traces(0)
	if len(traces) != 2 {
		t.Fatalf("traces=%d, want 2", len(traces))
	}
	// Most recent first.
	if traces[0].ID != 9 || traces[1].ID != 7 {
		t.Fatalf("order: %x, %x", traces[0].ID, traces[1].ID)
	}
	put := traces[1]
	if len(put.Spans) != 3 {
		t.Fatalf("put spans=%d", len(put.Spans))
	}
	if !put.Start.Equal(base) {
		t.Fatalf("trace start=%v", put.Start)
	}
	if put.Dur != 5*time.Millisecond {
		t.Fatalf("trace dur=%v, want 5ms", put.Dur)
	}
	// Spans sorted by start.
	for i := 1; i < len(put.Spans); i++ {
		if put.Spans[i].Start.Before(put.Spans[i-1].Start) {
			t.Fatal("spans not sorted by start")
		}
	}
	if r.Total() != 4 {
		t.Fatalf("total=%d", r.Total())
	}
}

func TestRecorderRingBound(t *testing.T) {
	r := NewRecorder(8)
	base := time.Now()
	for i := 0; i < 100; i++ {
		r.Record(uint64(i+1), "n", "s", base.Add(time.Duration(i)), time.Microsecond, "")
	}
	traces := r.Traces(0)
	if len(traces) != 8 {
		t.Fatalf("retained %d traces, want 8", len(traces))
	}
	// Newest survive.
	if traces[0].ID != 100 {
		t.Fatalf("newest=%d", traces[0].ID)
	}
}

// TestRecorderRingOnFirstUse: a recorder holds no ring until its first
// span, then one of its full size, which never grows past it.
func TestRecorderRingOnFirstUse(t *testing.T) {
	r := NewRecorder(4096)
	if r.ring != nil {
		t.Fatalf("an unused recorder holds a ring of %d spans", cap(r.ring))
	}
	for i := 0; i < 5000; i++ {
		r.Record(uint64(i+1), "n", "s", time.Now(), time.Microsecond, "")
		if cap(r.ring) != 4096 {
			t.Fatalf("after %d spans the ring has room for %d, want 4096", i+1, cap(r.ring))
		}
	}
	if spans := r.snapshot(); len(spans) != 4096 || spans[0].Trace != 5000-4096+1 || spans[4095].Trace != 5000 {
		t.Fatalf("ring holds %d spans, from trace %d to %d", len(spans), spans[0].Trace, spans[len(spans)-1].Trace)
	}
}

func TestRecorderSlowest(t *testing.T) {
	r := NewRecorder(4) // tiny ring: slow list must outlive evictions
	base := time.Now()
	r.Record(1, "n", "slowest", base, time.Second, "")
	for i := 0; i < 50; i++ {
		r.Record(uint64(i+2), "n", "fast", base, time.Microsecond, "")
	}
	slow := r.Slowest(5)
	if len(slow) == 0 || slow[0].Stage != "slowest" {
		t.Fatalf("slowest lost: %+v", slow)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Dur > slow[i-1].Dur {
			t.Fatal("slowest not sorted descending")
		}
	}
}

func TestRecorderZeroIDIgnored(t *testing.T) {
	r := NewRecorder(8)
	r.Record(0, "n", "s", time.Now(), time.Second, "")
	if r.Total() != 0 {
		t.Fatal("tid=0 must not be recorded")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(uint64(w*1000+i+1), "n", "s", time.Now(), time.Duration(i), "")
				if i%100 == 0 {
					r.Traces(4)
					r.Slowest(4)
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Total() != 4000 {
		t.Fatalf("total=%d", r.Total())
	}
}
