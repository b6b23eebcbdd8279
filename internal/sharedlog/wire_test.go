package sharedlog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bespokv/internal/rpc"
	"bespokv/internal/transport"
)

var (
	_ rpc.Wire = (*AppendArgs)(nil)
	_ rpc.Wire = (*AppendReply)(nil)
	_ rpc.Wire = (*ReadArgs)(nil)
	_ rpc.Wire = (*ReadReply)(nil)
)

// chop cuts raw into entries at lengths taken from its own leading bytes.
func chop(raw []byte) [][]byte {
	var out [][]byte
	for len(raw) > 0 {
		n := int(raw[0]) % 9
		raw = raw[1:]
		if n > len(raw) {
			n = len(raw)
		}
		out = append(out, raw[:n])
		raw = raw[n:]
	}
	return out
}

func sameEntries(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkEncoding: the encoding plus a trailing byte is rejected, and no
// strict prefix panics the decoder.
func checkEncoding(t *testing.T, enc []byte, fresh rpc.Wire) {
	t.Helper()
	if err := fresh.ParseWire(append(enc[:len(enc):len(enc)], 0)); err == nil {
		t.Fatalf("%T: trailing byte accepted", fresh)
	}
	for i := range enc {
		_ = fresh.ParseWire(enc[:i])
	}
}

// FuzzWireMessages: every sharedlog rpc.Wire message survives a round trip
// (entries byte-exact, no base64, empty entries included), and arbitrary
// bytes never panic a decoder or make it allocate past the payload.
func FuzzWireMessages(f *testing.F) {
	f.Add("shard-0", []byte{3, 'a', 'b', 'c', 0, 2, 'x', 'y'}, uint64(10), uint64(12), uint64(8), 4096, 500)
	f.Add("", []byte{}, uint64(0), uint64(0), uint64(0), 0, 0)
	f.Add("s", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}, ^uint64(0), uint64(1), ^uint64(0), -1, -500)
	f.Add("below-the-floor", []byte{}, uint64(3), uint64(3), uint64(32768), 4096, 0)
	// raw is a sequencer checkpoint: two streams, one trimmed.
	f.Add("ck", checkpointOf(map[string][][]byte{"a": {{1}, {}, {2, 3}}, "b": chop(bytes.Repeat([]byte{3, 'x', 'y', 'z'}, 12))}), uint64(0), uint64(0), uint64(0), 0, 0)
	f.Fuzz(func(t *testing.T, stream string, raw []byte, first, next, oldest uint64, max, wait int) {
		entries := chop(raw)

		// The sequencer checkpoint: what one stream holds comes back from
		// Restore(Snapshot()), and arbitrary bytes never panic its decoder.
		_, _ = parseSnapshot(raw)
		if len(entries) > 0 {
			ck := checkpointOf(map[string][][]byte{stream: entries})
			restored := newLogServer(t)
			logSM{restored}.Restore(ck)
			floor := restored.streams[stream].trimmed // past the window, the oldest segments went
			got, err := restored.handleRead(ReadArgs{Stream: stream, From: floor, Max: 1 << 20})
			if err != nil || got.Next != uint64(len(entries)) {
				t.Fatalf("restored stream: next %d of %d, %v", got.Next, len(entries), err)
			}
			var kept [][]byte
			for _, e := range got.Entries {
				kept = append(kept, e.Data)
			}
			if tail := entries[len(entries)-len(kept):]; !sameEntries(kept, tail) || len(kept) == 0 {
				t.Fatalf("restored entries %q, want the tail of %q", kept, entries)
			}
			if again := (logSM{restored}).Snapshot(); !bytes.Equal(again, ck) {
				t.Fatalf("checkpoint of a restored log differs")
			}
		}

		args := &AppendArgs{Stream: stream, Entries: entries}
		enc := args.AppendWire(nil)
		gotArgs := &AppendArgs{Stream: "dirty", Entries: [][]byte{{1}}}
		if err := gotArgs.ParseWire(enc); err != nil || gotArgs.Stream != stream || !sameEntries(gotArgs.Entries, entries) {
			t.Fatalf("AppendArgs round trip: %v %+v", err, gotArgs)
		}
		checkEncoding(t, enc, gotArgs)

		reply := &AppendReply{First: first, Next: next}
		enc = reply.AppendWire(nil)
		gotReply := &AppendReply{First: 1}
		if err := gotReply.ParseWire(enc); err != nil || *gotReply != *reply {
			t.Fatalf("AppendReply round trip: %v %+v", err, gotReply)
		}
		checkEncoding(t, enc, gotReply)

		rargs := &ReadArgs{Stream: stream, From: first, Max: max, WaitMs: wait}
		enc = rargs.AppendWire(nil)
		gotRargs := &ReadArgs{Max: 1}
		if err := gotRargs.ParseWire(enc); err != nil || *gotRargs != *rargs {
			t.Fatalf("ReadArgs round trip: %v %+v", err, gotRargs)
		}
		checkEncoding(t, enc, gotRargs)

		rreply := &ReadReply{Next: next, Oldest: oldest}
		for i, e := range entries {
			rreply.Entries = append(rreply.Entries, Entry{Offset: first + uint64(i), Data: e})
		}
		enc = rreply.AppendWire(nil)
		gotRreply := &ReadReply{Entries: []Entry{{Offset: 9}}, Oldest: 7}
		if err := gotRreply.ParseWire(enc); err != nil || gotRreply.Next != next || gotRreply.Oldest != oldest || len(gotRreply.Entries) != len(entries) {
			t.Fatalf("ReadReply round trip: %v %+v", err, gotRreply)
		}
		for i, e := range gotRreply.Entries {
			if e.Offset != first+uint64(i) || !bytes.Equal(e.Data, entries[i]) {
				t.Fatalf("ReadReply entry %d: %+v", i, e)
			}
		}
		// The reply must own its bytes: the frame buffer is reused.
		for i := range enc {
			enc[i] = 0xAA
		}
		for i, e := range gotRreply.Entries {
			if !bytes.Equal(e.Data, entries[i]) {
				t.Fatalf("ReadReply entry %d aliases the frame buffer", i)
			}
		}
		checkEncoding(t, rreply.AppendWire(nil), gotRreply)

		for _, m := range []rpc.Wire{&AppendArgs{}, &AppendReply{}, &ReadArgs{}, &ReadReply{}} {
			if err := m.ParseWire(raw); err == nil {
				if err := m.ParseWire(m.AppendWire(nil)); err != nil {
					t.Fatalf("%T: re-encoding of accepted bytes rejected: %v", m, err)
				}
			}
		}
	})
}

// TestHostileCountRejected: an entry count larger than the payload could
// hold is malformed, not an allocation of that many slots — in a message
// and in a checkpoint, which comes from disk or a peer.
func TestHostileCountRejected(t *testing.T) {
	huge := []byte{0 /* stream "" */, 0xff, 0xff, 0xff, 0xff, 0x0f /* 4G entries */}
	if err := new(AppendArgs).ParseWire(huge); err == nil {
		t.Fatal("AppendArgs accepted a 4G entry count in a 6-byte payload")
	}
	if err := new(ReadReply).ParseWire(huge); err == nil {
		t.Fatal("ReadReply accepted a 4G entry count in a 6-byte payload")
	}
	for name, ck := range map[string][]byte{
		"4G streams":           {0xff, 0xff, 0xff, 0xff, 0x0f},
		"4G entries":           {1, 0 /* "" */, 5, 0 /* next 5, floor 0 */, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"floor above tail":     {1, 0, 2, 3, 0},
		"entry below floor":    {1, 0, 5, 2, 1, 1 /* offset 1 */, 0},
		"entry past tail":      {1, 0, 5, 0, 1, 5, 0},
		"entries out of order": {1, 0, 5, 0, 2, 3, 0, 2, 0},
	} {
		if _, err := parseSnapshot(ck); err == nil {
			t.Errorf("checkpoint with %s accepted", name)
		}
	}
}

// newLogServer is a sequencer with no listener, for driving its state
// machine directly.
func newLogServer(t *testing.T) *Server {
	return &Server{cfg: Config{SegmentEntries: 4, Logf: t.Logf}, streams: map[string]*logState{}}
}

// checkpointOf builds the checkpoint of a log that was appended the given
// batches, one entry per append, with 4-entry segments.
func checkpointOf(streams map[string][][]byte) []byte {
	s := &Server{cfg: Config{SegmentEntries: 4}, streams: map[string]*logState{}}
	for name, entries := range streams {
		for _, e := range entries {
			cmd := (&AppendArgs{Stream: name, Entries: [][]byte{e}}).AppendWire(nil)
			logSM{s}.Apply(1, cmd)
		}
	}
	return logSM{s}.Snapshot()
}

// TestArenaSegments drives the segment arenas directly: records of every
// size (empty included) come back byte-exact across segment boundaries,
// slices handed out earlier survive later appends, and a snapshot restores
// into the same log even above a trimmed prefix. 16-entry segments keep the
// first 100 records inside the retention window; 60 more push two segments
// out of it.
func TestArenaSegments(t *testing.T) {
	s, c := newLog(t, Config{SegmentEntries: 16})
	record := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, i%5*7) }
	for i := 0; i < 50; i += 2 {
		if first, err := c.Append(record(i), record(i+1)); err != nil || first != uint64(i) {
			t.Fatalf("append %d: first=%d err=%v", i, first, err)
		}
	}
	// Server-side view: slices into the arena, taken before more appends.
	early, err := s.handleRead(ReadArgs{From: 3, Max: 20})
	if err != nil || len(early.Entries) != 20 {
		t.Fatalf("early read: %v, %d entries", err, len(early.Entries))
	}
	for i := 50; i < 100; i++ {
		c.Append(record(i))
	}
	for i, e := range early.Entries {
		if e.Offset != uint64(3+i) || !bytes.Equal(e.Data, record(3+i)) {
			t.Fatalf("entry %d changed under later appends: %+v", 3+i, e)
		}
		if cap(e.Data) != len(e.Data) {
			t.Fatalf("entry %d leaks arena capacity (len %d cap %d)", 3+i, len(e.Data), cap(e.Data))
		}
	}
	check := func(from, tail uint64) {
		t.Helper()
		entries, next, err := c.Read(from, 1000, 0)
		if err != nil || next != tail || len(entries) != int(tail-from) {
			t.Fatalf("read from %d: %d entries next=%d err=%v", from, len(entries), next, err)
		}
		for i, e := range entries {
			if want := from + uint64(i); e.Offset != want || !bytes.Equal(e.Data, record(int(want))) {
				t.Fatalf("offset %d: got %+v", want, e)
			}
		}
	}
	check(0, 100)
	check(37, 100)

	for i := 100; i < 160; i++ { // ten segments: [0,16) and [16,32) go
		c.Append(record(i))
	}
	snap := logSM{s}.Snapshot()
	c.Append([]byte("after the snapshot"))
	logSM{s}.Restore(snap)
	check(32, 160)
	var te *TrimmedError
	if _, _, err := c.Read(31, 10, 0); !errors.As(err, &te) || te.Oldest != 32 {
		t.Fatalf("read below the restored trim floor: %v", err)
	}
	if first, err := c.Append([]byte("x")); err != nil || first != 160 {
		t.Fatalf("append after restore: first=%d err=%v", first, err)
	}
}

func benchLog(b *testing.B) (*Server, *Client) {
	b.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		b.Fatal(err)
	}
	s, err := Serve(Config{Network: net})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	c, err := DialClient(net, s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return s, c
}

// logRecord is the size of an AA+EC put record for a 16 B key and a 32 B
// value.
var logRecord = bytes.Repeat([]byte("r"), 64)

func benchAppend(b *testing.B, c *Client, batch int) {
	entries := make([][]byte, batch)
	for i := range entries {
		entries[i] = logRecord
	}
	b.SetBytes(int64(batch * len(logRecord)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Append(entries...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppend1 is what one AA+EC write pays the log; BenchmarkAppend64
// is the batched propagation path. Run with -cpu 1,2; parallel callers
// share one connection.
func BenchmarkAppend1(b *testing.B)  { _, c := benchLog(b); benchAppend(b, c, 1) }
func BenchmarkAppend64(b *testing.B) { _, c := benchLog(b); benchAppend(b, c, 64) }

// BenchmarkAppend1Replicated is BenchmarkAppend1 through a 3-member
// sequencer group: an append commits once a follower has acked it.
func BenchmarkAppend1Replicated(b *testing.B) {
	g := newLogGroup(b, 3)
	g.waitLeader()
	benchAppend(b, g.client(), 1)
}

// BenchmarkReadBatch is a replica catching up: 256-entry reads cycling
// over a 64 Ki-entry log.
func BenchmarkReadBatch(b *testing.B) {
	_, c := benchLog(b)
	const total, batch = 16 << 10, 256 // inside the retention window
	entries := make([][]byte, batch)
	for i := range entries {
		entries[i] = logRecord
	}
	for i := 0; i < total/batch; i++ {
		if _, err := c.Append(entries...); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(batch * len(logRecord)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		from := uint64(0)
		for pb.Next() {
			got, next, err := c.Read(from, batch, 0)
			if err != nil || len(got) != batch {
				b.Fatal(fmt.Errorf("read from %d: %d entries, %v", from, len(got), err))
			}
			if from = next; from+batch > total {
				from = 0
			}
		}
	})
}
