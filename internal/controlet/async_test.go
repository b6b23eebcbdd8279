package controlet

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"bespokv/internal/wire"
)

var msec = fourModes[1]

// TestMSECBatchFrames: an MS+EC master propagates a 64-pair MultiPut to
// each slave as one OpReplMPut of 64 pairs, and a lone Put as one
// OpReplPut.
func TestMSECBatchFrames(t *testing.T) {
	slaves := []*fakePeer{startFakePeer(t, wire.StatusOK), startFakePeer(t, wire.StatusOK)}
	s := startShard(t, msec, 1, slaves[0].node("s1"), slaves[1].node("s2")).ctls[0]
	var resp wire.Response
	batch := mputOf("k", 64)
	if s.dispatchAdmit(batch, &resp); resp.Status != wire.StatusOK || slices.ContainsFunc(resp.Statuses, func(st wire.Status) bool { return st != wire.StatusOK }) {
		t.Fatalf("mput: %s %s %v", resp.Status, resp.Err, resp.Statuses)
	}
	s.prop.drain()
	for i, f := range slaves {
		if frames, pairs := f.seen(wire.OpReplMPut); frames != 1 || pairs != 64 {
			t.Fatalf("slave %d: %d OpReplMPut frames of %d pairs, want 1 of 64", i, frames, pairs)
		}
		if frames, _ := f.seen(wire.OpReplPut); frames != 0 {
			t.Fatalf("slave %d: %d OpReplPut frames, want 0", i, frames)
		}
	}
	resp.Reset()
	if s.dispatchAdmit(&wire.Request{Op: wire.OpPut, Key: []byte("lone"), Value: []byte("v")}, &resp); resp.Status != wire.StatusOK {
		t.Fatalf("put: %s %s", resp.Status, resp.Err)
	}
	s.prop.drain()
	for i, f := range slaves {
		if frames, _ := f.seen(wire.OpReplPut); frames != 1 {
			t.Fatalf("slave %d: a lone put arrived as %d OpReplPut frames, want 1", i, frames)
		}
		if frames, _ := f.seen(wire.OpReplMPut); frames != 1 {
			t.Fatalf("slave %d: a lone put added an OpReplMPut frame", i)
		}
	}
}

// TestMSECFramesCut: writes queued behind an unanswered frame go out as
// runs of puts to one table; a delete and a change of table close a run.
func TestMSECFramesCut(t *testing.T) {
	slave := startFakePeer(t, wire.StatusOK)
	slave.hold = make(chan struct{})
	sh := startShard(t, msec, 1, slave.node("s1"))
	s := sh.ctls[0]
	createTable(t, sh.datalets[0], "t")
	write := func(op wire.Op, table, key string) {
		t.Helper()
		var resp wire.Response
		if s.dispatchAdmit(&wire.Request{Op: op, Table: table, Key: []byte(key), Value: []byte("v")}, &resp); resp.Status != wire.StatusOK && resp.Status != wire.StatusNotFound {
			t.Fatalf("%s %s: %s %s", op, key, resp.Status, resp.Err)
		}
	}
	write(wire.OpPut, "", "x")
	eventually(t, "the first frame", func() bool { frames, _ := slave.seen(wire.OpReplPut); return frames == 1 })
	write(wire.OpPut, "", "a")
	write(wire.OpPut, "", "b")
	write(wire.OpDel, "", "c")
	write(wire.OpPut, "", "d")
	write(wire.OpPut, "t", "e")
	write(wire.OpPut, "t", "f")
	close(slave.hold)
	s.prop.drain()
	slave.mu.Lock()
	got := slices.Clone(slave.trail)
	slave.mu.Unlock()
	// The round's frames are in flight together, on any of the link's
	// connections: their arrival order is not theirs to keep.
	slices.Sort(got[1:])
	want := []string{"REPLPUT x", "REPLDEL c", "REPLMPUT a,b", "REPLMPUT e,f", "REPLPUT d"}
	if !slices.Equal(got, want) {
		t.Fatalf("frames %q, want %q", got, want)
	}
}

// TestMSECBatchAboveFrameLimit: a 17.5 MB MultiPut reaches a slave in
// several frames, none above maxFrameBytes plus one record.
func TestMSECBatchAboveFrameLimit(t *testing.T) {
	slave := startFakePeer(t, wire.StatusOK)
	s := startShard(t, msec, 1, slave.node("s1")).ctls[0]
	const pairs, size = 35, 1 << 19 // 35 × 512 KiB
	req := &wire.Request{Op: wire.OpMPut}
	for i := 0; i < pairs; i++ {
		req.Pairs = append(req.Pairs, wire.KV{Key: []byte(fmt.Sprintf("big%02d", i)), Value: bytes.Repeat([]byte{byte('a' + i%26)}, size)})
	}
	var resp wire.Response
	if s.dispatch(req, &resp); resp.Status != wire.StatusOK || len(resp.Statuses) != pairs {
		t.Fatalf("mput of %d MB: %s %s, %d statuses", pairs*size>>20, resp.Status, resp.Err, len(resp.Statuses))
	}
	s.prop.drain()
	multi, inMulti := slave.seen(wire.OpReplMPut)
	single, _ := slave.seen(wire.OpReplPut)
	if inMulti+single != pairs || multi+single < pairs*size/maxFrameBytes {
		t.Fatalf("%d pairs in %d OpReplMPut frames and %d OpReplPut frames, want %d pairs in at least %d frames",
			inMulti, multi, single, pairs, pairs*size/maxFrameBytes)
	}
	slave.mu.Lock()
	defer slave.mu.Unlock()
	if limit := maxFrameBytes + size + len("big00"); slave.largest > limit {
		t.Fatalf("a frame carried %d bytes, above %d", slave.largest, limit)
	}
}

// TestPropagationRetriesRefusal: a slave that answers but refuses a record
// is sent it again, propAttempts times in all, and the record is then
// counted as dropped. Only a transport error used to be retried; a refusal
// counted as delivered.
func TestPropagationRetriesRefusal(t *testing.T) {
	slave := startFakePeer(t, wire.StatusUnavailable)
	s := startShard(t, msec, 1, slave.node("s1")).ctls[0]
	dropped := ctlPropDropped.Value()
	var resp wire.Response
	if s.dispatchAdmit(&wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v")}, &resp); resp.Status != wire.StatusOK {
		t.Fatalf("put: %s %s", resp.Status, resp.Err)
	}
	s.prop.drain() // or the put and the mput could share a frame
	resp.Reset()
	if s.dispatchAdmit(mputOf("m", 4), &resp); resp.Status != wire.StatusOK {
		t.Fatalf("mput: %s %s", resp.Status, resp.Err)
	}
	s.prop.drain()
	if frames, _ := slave.seen(wire.OpReplPut); frames != propAttempts {
		t.Fatalf("the refused put was sent %d times, want %d", frames, propAttempts)
	}
	if frames, pairs := slave.seen(wire.OpReplMPut); frames != propAttempts || pairs != 4*propAttempts {
		t.Fatalf("the refused mput was sent as %d frames of %d pairs, want %d of %d", frames, pairs, propAttempts, 4*propAttempts)
	}
	if d := ctlPropDropped.Value() - dropped; d != 5 {
		t.Fatalf("%d records counted as dropped, want 5", d)
	}
}

// TestPropagationBacklogSheds: once a slave's queue is full, the rest of a
// write waits at most propEnqueueWait for room and is then shed, not
// acked: the refused tail of a batch answers Overloaded pair by pair, a
// single write as a whole.
func TestPropagationBacklogSheds(t *testing.T) {
	slave := startFakePeer(t, wire.StatusOK)
	slave.hold = make(chan struct{}) // the slave answers nothing: its queue fills
	s := startShard(t, msec, 1, slave.node("s1")).ctls[0]
	t.Cleanup(func() { close(slave.hold) })
	shed := s.admit.Shed.Value()
	var resp wire.Response
	refused := 0
	for i := 0; refused == 0; i++ {
		if i > (propQueueDepth+maxFramePairs)/64+1 {
			t.Fatalf("%d batches of 64 queued, none shed", i)
		}
		resp.Reset()
		start := time.Now()
		if s.dispatchAdmit(mputOf(fmt.Sprintf("b%d", i), 64), &resp); resp.Status != wire.StatusOK || len(resp.Statuses) != 64 {
			t.Fatalf("batch %d: %s %s, %d statuses", i, resp.Status, resp.Err, len(resp.Statuses))
		}
		for j, st := range resp.Statuses {
			switch {
			case st == wire.StatusOverloaded:
				refused++
			case st != wire.StatusOK || refused > 0:
				t.Fatalf("batch %d pair %d: %s after %d refused pairs; want acked pairs, then shed ones", i, j, st, refused)
			}
		}
		if refused > 0 && time.Since(start) < propEnqueueWait {
			t.Fatalf("batch %d shed after %v, before the %v grace", i, time.Since(start), propEnqueueWait)
		}
	}
	resp.Reset()
	if s.dispatchAdmit(&wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v")}, &resp); resp.Status != wire.StatusOverloaded {
		t.Fatalf("put behind a full queue: %s %s, want Overloaded", resp.Status, resp.Err)
	}
	if d := s.admit.Shed.Value() - shed; d != int64(refused)+1 {
		t.Fatalf("%d writes counted as shed, want %d", d, refused+1)
	}
}
