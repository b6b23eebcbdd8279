package sharedlog

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bespokv/internal/transport"
)

func newLog(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Network = net
	s, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := DialClient(net, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestAppendAssignsContiguousOffsets(t *testing.T) {
	_, c := newLog(t, Config{})
	first, err := c.Append([]byte("a"), []byte("b"), []byte("c"))
	if err != nil || first != 0 {
		t.Fatalf("first=%d err=%v", first, err)
	}
	second, err := c.Append([]byte("d"))
	if err != nil || second != 3 {
		t.Fatalf("second=%d err=%v", second, err)
	}
	next, err := c.Tail()
	if err != nil || next != 4 {
		t.Fatalf("tail=%d err=%v", next, err)
	}
}

func TestReadInOrder(t *testing.T) {
	_, c := newLog(t, Config{})
	for i := 0; i < 10; i++ {
		if _, err := c.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	entries, next, err := c.Read(0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 || next != 10 {
		t.Fatalf("got %d entries, next=%d", len(entries), next)
	}
	for i, e := range entries {
		if e.Offset != uint64(i) || e.Data[0] != byte(i) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

func TestReadMax(t *testing.T) {
	_, c := newLog(t, Config{})
	for i := 0; i < 10; i++ {
		c.Append([]byte{byte(i)})
	}
	entries, next, err := c.Read(3, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 || next != 7 || entries[0].Offset != 3 {
		t.Fatalf("entries=%d next=%d first=%d", len(entries), next, entries[0].Offset)
	}
}

// A Read stops short of maxReadBytes, so a run of large entries, more
// than an rpc frame together, comes back over several Reads; an entry
// above the cap still comes alone.
func TestReadCapsBytes(t *testing.T) {
	_, c := newLog(t, Config{})
	sizes := []int{maxReadBytes / 2, maxReadBytes / 2, maxReadBytes / 2, maxReadBytes + 1, 10}
	for _, n := range sizes {
		if _, err := c.Append(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]int
	for from := uint64(0); from < uint64(len(sizes)); {
		entries, next, err := c.Read(from, 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		var read []int
		for _, e := range entries {
			read = append(read, len(e.Data))
		}
		got, from = append(got, read), next
	}
	half := maxReadBytes / 2
	if want := fmt.Sprint([][]int{{half, half}, {half}, {maxReadBytes + 1}, {10}}); fmt.Sprint(got) != want {
		t.Fatalf("reads of %v bytes, want %v", got, want)
	}
}

func TestReadSpansSegments(t *testing.T) {
	_, c := newLog(t, Config{SegmentEntries: 4})
	for i := 0; i < 20; i++ {
		c.Append([]byte{byte(i)})
	}
	entries, next, err := c.Read(2, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 18 || next != 20 {
		t.Fatalf("entries=%d next=%d", len(entries), next)
	}
	for i, e := range entries {
		if e.Offset != uint64(i+2) {
			t.Fatalf("entry %d offset=%d", i, e.Offset)
		}
	}
}

func TestLongPollWakesOnAppend(t *testing.T) {
	s, c := newLog(t, Config{})
	done := make(chan []Entry, 1)
	go func() {
		entries, _, err := c.Read(0, 10, 5*time.Second)
		if err != nil {
			done <- nil
			return
		}
		done <- entries
	}()
	time.Sleep(30 * time.Millisecond)
	net, _ := transport.Lookup("inproc")
	c2, err := DialClient(net, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Append([]byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case entries := <-done:
		if len(entries) != 1 || string(entries[0].Data) != "wake" {
			t.Fatalf("got %+v", entries)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke")
	}
}

func TestLongPollTimesOutEmpty(t *testing.T) {
	_, c := newLog(t, Config{})
	start := time.Now()
	entries, next, err := c.Read(0, 10, 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || next != 0 {
		t.Fatalf("entries=%d next=%d", len(entries), next)
	}
	if time.Since(start) < 60*time.Millisecond {
		t.Fatal("returned before the poll window")
	}
}

// TestRetentionWindow: a stream keeps its last RetainSegments segments.
// Older ones are dropped by the append that starts a new segment, whatever
// the batch sizes; a read below the floor reports the oldest offset left; a
// second stream is not affected.
func TestRetentionWindow(t *testing.T) {
	const seg = 4
	s, c := newLog(t, Config{SegmentEntries: seg})
	other := c.Stream("quiet")
	if _, err := other.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	const window = RetainSegments * seg
	total := 0
	for _, batch := range []int{1, 3, window, 1, 2*window + 1, seg - 1} {
		datas := make([][]byte, batch)
		for i := range datas {
			datas[i] = []byte{byte(total + i)}
		}
		if first, err := c.Append(datas...); err != nil || first != uint64(total) {
			t.Fatalf("append at %d: first=%d err=%v", total, first, err)
		}
		total += batch
		// Whole segments only: the floor is a segment base, and what is
		// kept is the segment being filled plus at most RetainSegments-1
		// full ones.
		s.mu.Lock()
		st := s.streams[""]
		segs, trimmed, next := len(st.segs), st.trimmed, st.next
		s.mu.Unlock()
		if segs > RetainSegments || trimmed%seg != 0 || next-trimmed > window {
			t.Fatalf("after %d appends: %d segments, floor %d, tail %d", total, segs, trimmed, next)
		}
		if want := uint64(max(0, (total+seg-1)/seg-RetainSegments) * seg); trimmed != want {
			t.Fatalf("after %d appends: floor %d, want %d", total, trimmed, want)
		}
		if got := logTail.Value() - logOldest.Value(); got > window {
			t.Fatalf("tail - oldest gauges = %d, window is %d", got, window)
		}
	}
	s.mu.Lock()
	floor := s.streams[""].trimmed
	s.mu.Unlock()
	var te *TrimmedError
	if _, _, err := c.Read(floor-1, 10, time.Second); !errors.As(err, &te) || te.From != floor-1 || te.Oldest != floor {
		t.Fatalf("read below the floor: %v", err)
	}
	entries, next, err := c.Read(floor, 1000, 0)
	if err != nil || next != uint64(total) || len(entries) != total-int(floor) {
		t.Fatalf("read from the floor: %d entries next=%d err=%v", len(entries), next, err)
	}
	for i, e := range entries {
		if want := floor + uint64(i); e.Offset != want || e.Data[0] != byte(want) {
			t.Fatalf("offset %d: got %+v", want, e)
		}
	}
	if entries, _, err := other.Read(0, 10, 0); err != nil || len(entries) != 1 {
		t.Fatalf("quiet stream: %d entries, err=%v", len(entries), err)
	}
}

func TestEmptyAppendRejected(t *testing.T) {
	_, c := newLog(t, Config{})
	if _, err := c.Append(); err == nil {
		t.Fatal("empty append must error")
	}
}

func TestConcurrentAppendersGetDistinctOffsets(t *testing.T) {
	s, _ := newLog(t, Config{})
	net, _ := transport.Lookup("inproc")
	const workers = 8
	const perWorker = 100
	offsets := make(chan uint64, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialClient(net, s.Addr())
			if err != nil {
				return
			}
			defer c.Close()
			for i := 0; i < perWorker; i++ {
				off, err := c.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					return
				}
				offsets <- off
			}
		}(w)
	}
	wg.Wait()
	close(offsets)
	seen := map[uint64]bool{}
	n := 0
	for off := range offsets {
		if seen[off] {
			t.Fatalf("duplicate offset %d", off)
		}
		seen[off] = true
		n++
	}
	if n != workers*perWorker {
		t.Fatalf("lost appends: %d", n)
	}
}
