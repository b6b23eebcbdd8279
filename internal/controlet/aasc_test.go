package controlet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

var aasc = topology.Mode{Topology: topology.AA, Consistency: topology.Strong}

// ownedKey returns a key whose slot the shard's replica id owns.
func ownedKey(t *testing.T, shard topology.Shard, id string) []byte {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if k := []byte(fmt.Sprintf("k-%d", i)); shard.SlotOwner(topology.SlotOf(k)).ID == id {
			return k
		}
	}
	t.Fatalf("no key owned by %s", id)
	return nil
}

// At a slot's owner, a read of a key waits for the write of that key whose
// write-all is still in flight: until every replica has the value, the
// owner's own copy of it is not the linearizable answer. Reads of other
// keys in the slot go ahead.
func TestAASCReadWaitsForWriteAll(t *testing.T) {
	peer := startFakePeer(t, wire.StatusOK)
	peer.hold = make(chan struct{})
	sh := startShard(t, aasc, 1, peer.node("peer"))
	var release sync.Once
	unhold := func() { release.Do(func() { close(peer.hold) }) }
	t.Cleanup(unhold) // first: nothing shuts down while the peer holds a frame
	s, shard := sh.ctls[0], sh.m.Shards[0]
	key := ownedKey(t, shard, "n0")
	var other []byte
	for i := 0; other == nil; i++ {
		k := []byte(fmt.Sprintf("other-%d", i))
		if topology.SlotOf(k) == topology.SlotOf(key) && topology.KeyHash(k) != topology.KeyHash(key) {
			other = k
		}
	}

	put := make(chan wire.Status, 1)
	go func() {
		var resp wire.Response
		s.dispatch(&wire.Request{Op: wire.OpPut, Key: key, Value: []byte("v1")}, &resp)
		put <- resp.Status
	}()
	// The put is in its write-all once the peer has its frame.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		peer.mu.Lock()
		_, sent := peer.deadlines[wire.OpReplPut]
		peer.mu.Unlock()
		if sent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the write-all never reached the peer")
		}
	}

	var resp wire.Response
	s.dispatch(&wire.Request{Op: wire.OpGet, Key: other}, &resp)
	if resp.Status != wire.StatusNotFound {
		t.Fatalf("read of another key in the slot: %s %s, want NotFound at once", resp.Status, resp.Err)
	}
	got := make(chan wire.Response, 1)
	go func() {
		var resp wire.Response
		s.dispatch(&wire.Request{Op: wire.OpGet, Key: key}, &resp)
		got <- resp
	}()
	select {
	case r := <-got:
		t.Fatalf("read answered %s %q while the write-all was in flight", r.Status, r.Value)
	case <-time.After(100 * time.Millisecond):
	}
	unhold()
	if st := <-put; st != wire.StatusOK {
		t.Fatalf("put: %s", st)
	}
	if r := <-got; r.Status != wire.StatusOK || string(r.Value) != "v1" {
		t.Fatalf("read after the write-all: %s %q, want v1", r.Status, r.Value)
	}
}

// A write-all frame carries its slot lease's doneBy as its deadline, and a
// replica refuses such a frame once the budget is spent instead of applying
// it after the lease may have passed on. A frame without a deadline — an
// MS+EC propagated record, already acked — is always applied.
func TestAASCWriteAllCarriesLeaseDeadline(t *testing.T) {
	peer := startFakePeer(t, wire.StatusOK)
	sh := startShard(t, aasc, 1, peer.node("peer"))
	s := sh.ctls[0]
	key := ownedKey(t, sh.m.Shards[0], "n0")
	var resp wire.Response
	s.dispatch(&wire.Request{Op: wire.OpPut, Key: key, Value: []byte("v")}, &resp)
	if resp.Status != wire.StatusOK {
		t.Fatalf("put: %s %s", resp.Status, resp.Err)
	}
	peer.mu.Lock()
	budget := time.Duration(peer.deadlines[wire.OpReplPut])
	peer.mu.Unlock()
	if ttl := s.cfg.LockTTL; budget <= 0 || budget > ttl-ttl/8 {
		t.Fatalf("write-all frame's deadline budget %v, want in (0, %v]", budget, ttl-ttl/8)
	}

	spent := time.Now().Add(-time.Millisecond).UnixNano()
	resp.Reset()
	s.dispatch(&wire.Request{Op: wire.OpReplPut, Key: []byte("late"), Value: []byte("v"), Version: 1, DeadlineAt: spent}, &resp)
	if resp.Status != wire.StatusOverloaded {
		t.Fatalf("spent write-all frame: %s %s, want Overloaded", resp.Status, resp.Err)
	}
	resp.Reset()
	s.localCall(&wire.Request{Op: wire.OpGet, Key: []byte("late")}, &resp)
	if resp.Status != wire.StatusNotFound {
		t.Fatalf("a refused frame was applied: %s %q", resp.Status, resp.Value)
	}
	resp.Reset()
	s.dispatch(&wire.Request{Op: wire.OpReplPut, Key: []byte("late"), Value: []byte("v"), Version: 1}, &resp)
	if resp.Status != wire.StatusOK {
		t.Fatalf("frame without a deadline: %s %s", resp.Status, resp.Err)
	}
}

// One key's reads and writes take turns: a kind that waits is not
// overtaken by newcomers of the kind inside, and gets the key as soon as
// the last of that kind leaves.
func TestKeyUseTakesTurns(t *testing.T) {
	e := &slotLease{}
	e.cond.L = &e.mu
	op := func(write bool) slotOp { return slotOp{e: e, h: 7, write: write} }
	get := func(op slotOp) { // enter's key wait, without the lease
		for waited := false; !e.free(op, waited); waited = true {
			e.await(op)
		}
		e.join(op)
	}
	waitFor := func(what string, cond func(keyUse) bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			e.mu.Lock()
			ok := cond(e.keys[7])
			e.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	start := func(op slotOp) <-chan struct{} {
		in := make(chan struct{})
		go func() {
			e.mu.Lock()
			get(op)
			e.mu.Unlock()
			close(in)
		}()
		return in
	}

	w1, r1, w2 := op(true), op(false), op(true)
	e.mu.Lock()
	get(w1)
	e.mu.Unlock()
	r1in := start(r1)
	waitFor("the read to wait", func(k keyUse) bool { return k.waitR == 1 })
	e.mu.Lock()
	if e.free(op(false), false) || e.free(op(true), false) {
		t.Fatal("a newcomer got in while a write was inside and a read waited")
	}
	e.mu.Unlock()
	w2in := start(w2)
	waitFor("the second write to wait", func(k keyUse) bool { return k.waitW == 1 })

	e.mu.Lock()
	e.leave(w1)
	e.mu.Unlock()
	<-r1in
	waitFor("the read inside, the write still waiting", func(k keyUse) bool { return k.readers == 1 && k.writers == 0 && k.waitW == 1 })
	e.mu.Lock()
	e.leave(r1)
	e.mu.Unlock()
	<-w2in
	e.mu.Lock()
	e.leave(w2)
	left := len(e.keys)
	e.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d key entries left after everyone left", left)
	}
}
