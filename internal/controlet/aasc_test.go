package controlet

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/clock"
	"bespokv/internal/rpc"
	"bespokv/internal/store"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
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

// ownedKeys returns n distinct keys whose slots the shard's replica id owns.
func ownedKeys(t *testing.T, shard topology.Shard, id string, n int) [][]byte {
	t.Helper()
	var keys [][]byte
	for i := 0; len(keys) < n && i < 100*n; i++ {
		if k := []byte(fmt.Sprintf("k-%d", i)); shard.SlotOwner(topology.SlotOf(k)).ID == id {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("only %d keys owned by %s", len(keys), id)
	}
	return keys
}

// At a slot's owner, a strong read of a key whose write-all is still in
// flight answers at once with the owner's copy from before the write —
// the owner applies last, so the in-flight value is nowhere it serves —
// and returns the value once the put is acked.
func TestAASCReadWaitsForWriteAll(t *testing.T) {
	peer := startFakePeer(t, wire.StatusOK)
	peer.hold = make(chan struct{})
	sh := startShard(t, aasc, 1, peer.node("peer"))
	var release sync.Once
	unhold := func() { release.Do(func() { close(peer.hold) }) }
	t.Cleanup(unhold) // first: nothing shuts down while the peer holds a frame
	s, shard := sh.ctls[0], sh.m.Shards[0]
	key := ownedKey(t, shard, "n0")

	put := make(chan wire.Status, 1)
	go func() {
		var resp wire.Response
		s.dispatch(&wire.Request{Op: wire.OpPut, Key: key, Value: []byte("v1")}, &resp)
		put <- resp.Status
	}()
	waitWriteAll(t, peer)

	got := make(chan wire.Response, 1)
	go func() {
		var resp wire.Response
		s.dispatch(&wire.Request{Op: wire.OpGet, Key: key}, &resp)
		got <- resp
	}()
	select {
	case r := <-got:
		if r.Status != wire.StatusNotFound {
			t.Fatalf("read while the write-all was in flight: %s %q, want NotFound, the owner's copy", r.Status, r.Value)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the read waited for the write-all in flight")
	}
	unhold()
	if st := <-put; st != wire.StatusOK {
		t.Fatalf("put: %s", st)
	}
	var resp wire.Response
	s.dispatch(&wire.Request{Op: wire.OpGet, Key: key}, &resp)
	if resp.Status != wire.StatusOK || string(resp.Value) != "v1" {
		t.Fatalf("read after the put's ack: %s %q, want v1", resp.Status, resp.Value)
	}
}

// waitWriteAll returns once the fake peer has been sent a write-all frame.
func waitWriteAll(t *testing.T, peer *fakePeer) {
	t.Helper()
	eventually(t, "the write-all to reach the peer", func() bool {
		peer.mu.Lock()
		defer peer.mu.Unlock()
		_, sent := peer.deadlines[wire.OpReplPut]
		return sent
	})
}

// heldGetEngine parks the first read of key until release is closed; parked
// is closed once it waits.
type heldGetEngine struct {
	store.Engine
	key             []byte
	once            sync.Once
	parked, release chan struct{}
}

func (e *heldGetEngine) AppendGet(dst, key []byte) ([]byte, uint64, bool, error) {
	if bytes.Equal(key, e.key) {
		e.once.Do(func() {
			close(e.parked)
			<-e.release
		})
	}
	return e.Engine.AppendGet(dst, key)
}

// A strong read the previous owner authorized before a handoff counts as in
// flight there: the new owner's barrier waits it out. Held at the previous
// owner's datalet, it could otherwise read the new owner's first write-all
// there and answer with a value the new owner, which applies last, does
// not serve yet — a later read at the new owner would go back in time.
func TestAASCHandoffDrainsOwnerRead(t *testing.T) {
	peer := startFakePeer(t, wire.StatusOK)
	peer.hold = make(chan struct{})
	held := &heldGetEngine{parked: make(chan struct{}), release: make(chan struct{})}
	sh := startShardOpts(t, aasc, 2, shardOpts{engine: func(i int, e store.Engine) store.Engine {
		if i != 0 {
			return e
		}
		held.Engine = e
		return held
	}}, peer.node("peer"))
	var unholdPeer, unholdGet sync.Once
	t.Cleanup(func() { // first: nothing shuts down while a frame or a read is held
		unholdPeer.Do(func() { close(peer.hold) })
		unholdGet.Do(func() { close(held.release) })
	})
	n0, n1 := sh.ctls[0], sh.ctls[1]
	next := epochMap(sh.m, sh.m.Epoch+1, "n0") // n0 stays in the shard but owns nothing
	for i := 0; held.key == nil; i++ {
		k := []byte(fmt.Sprintf("k-%d", i))
		slot := topology.SlotOf(k)
		if sh.m.Shards[0].SlotOwner(slot).ID == "n0" && next.Shards[0].SlotOwner(slot).ID == "n1" {
			held.key = k
		}
	}
	key := held.key
	get := func(s *Server) wire.Response {
		var resp wire.Response
		s.dispatch(&wire.Request{Op: wire.OpGet, Key: key}, &resp)
		return resp
	}

	old := make(chan wire.Response, 1)
	go func() { old <- get(n0) }()
	<-held.parked // authorized at n0, parked at its datalet
	n1.SetMap(next)
	put := make(chan wire.Status, 1)
	go func() {
		var resp wire.Response
		n1.dispatch(&wire.Request{Op: wire.OpPut, Key: key, Value: []byte("v1")}, &resp)
		put <- resp.Status
	}()
	// Hold the read until the write-all has reached n0's datalet, or until
	// a Quiesce at n0 (the new owner's barrier) has waited on it for 10
	// polls in a row.
	waited := 0
	eventually(t, "the write-all to reach n0 or n0's Quiesce to wait", func() bool {
		if _, _, ok, _ := held.Engine.AppendGet(nil, key); ok { // past the park
			return true
		}
		if n0.inflight.TryRLock() {
			n0.inflight.RUnlock()
			waited = 0
			return false
		}
		waited++
		return waited >= 10
	})
	unholdGet.Do(func() { close(held.release) })
	if r := <-old; r.Status != wire.StatusNotFound {
		t.Fatalf("previous owner's read: %s %q, want NotFound, its copy from before the handoff", r.Status, r.Value)
	}
	waitWriteAll(t, peer)
	if r := get(n1); r.Status != wire.StatusNotFound {
		t.Fatalf("new owner's read while its write-all is held: %s %q, want NotFound", r.Status, r.Value)
	}
	unholdPeer.Do(func() { close(peer.hold) })
	if st := <-put; st != wire.StatusOK {
		t.Fatalf("put at the new owner: %s", st)
	}
	if r := get(n1); r.Status != wire.StatusOK || string(r.Value) != "v1" {
		t.Fatalf("new owner's read after the ack: %s %q, want v1", r.Status, r.Value)
	}
}

// A write-all frame carries the owner's map epoch, and its fence instant as
// its deadline; a replica refuses such a frame once the budget is spent
// instead of applying it after the owner may have been failed out. A frame
// without a deadline — an MS+EC propagated record, already acked — is
// always applied. Past its fence instant the owner serves nothing.
func TestAASCWriteAllCarriesLeaseDeadline(t *testing.T) {
	const fence = time.Minute
	peer := startFakePeer(t, wire.StatusOK)
	sh := startShardOpts(t, aasc, 1, shardOpts{fence: fence}, peer.node("peer"))
	s := sh.ctls[0]
	key := ownedKey(t, sh.m.Shards[0], "n0")
	var resp wire.Response
	s.dispatch(&wire.Request{Op: wire.OpPut, Key: key, Value: []byte("v")}, &resp)
	if resp.Status != wire.StatusOK {
		t.Fatalf("put: %s %s", resp.Status, resp.Err)
	}
	peer.mu.Lock()
	budget := time.Duration(peer.deadlines[wire.OpReplPut])
	epoch := peer.epochs[wire.OpReplPut]
	peer.mu.Unlock()
	if left := time.Duration(s.fenceAt() - clock.Mono()); budget <= 0 || budget > left+time.Second {
		t.Fatalf("write-all frame's deadline budget %v, want in (0, %v], the time left to the owner's fence", budget, left)
	}
	if epoch != sh.m.Epoch {
		t.Fatalf("write-all frame stamped epoch %d, want the owner's %d", epoch, sh.m.Epoch)
	}

	spent := clock.Mono() - int64(time.Millisecond)
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

	// An owner whose fence has passed: its coordinator never answered.
	f := startShardOpts(t, aasc, 1, shardOpts{fence: time.Millisecond}).ctls[0]
	for !f.fenced() {
		time.Sleep(time.Millisecond)
	}
	for _, req := range []*wire.Request{
		{Op: wire.OpPut, Key: key, Value: []byte("v")},
		{Op: wire.OpGet, Key: key},
	} {
		resp.Reset()
		f.dispatch(req, &resp)
		if resp.Status != wire.StatusUnavailable {
			t.Fatalf("%s at a fenced owner: %s %s, want Unavailable", req.Op, resp.Status, resp.Err)
		}
	}
}

// The fence, and the fence instant a write-all carries as its deadline,
// are readings of the monotonic clock (clock.Mono), which a wall-clock
// step cannot move. With the last acknowledged heartbeat set back, the
// budget a peer is handed is what is left to the fence, and the owner
// fences once the monotonic clock passes it.
func TestAASCFenceOnMonotonicClock(t *testing.T) {
	const fence = time.Minute
	peer := startFakePeer(t, wire.StatusOK)
	sh := startShardOpts(t, aasc, 1, shardOpts{fence: fence}, peer.node("peer"))
	s := sh.ctls[0]
	key := ownedKey(t, sh.m.Shards[0], "n0")
	put := func() *wire.Response {
		var resp wire.Response
		s.dispatch(&wire.Request{Op: wire.OpPut, Key: key, Value: []byte("v")}, &resp)
		return &resp
	}
	left := func() time.Duration { return time.Duration(s.fenceAt() - clock.Mono()) }
	for _, back := range []time.Duration{0, fence - time.Second} {
		s.lastBeat.Store(clock.Mono() - int64(back))
		most := left()
		r := put()
		least := left()
		if r.Status != wire.StatusOK {
			t.Fatalf("put with %v left to the fence: %s %s", most, r.Status, r.Err)
		}
		peer.mu.Lock()
		budget := time.Duration(peer.deadlines[wire.OpReplPut])
		peer.mu.Unlock()
		if budget < least || budget > most {
			t.Fatalf("write-all budget %v, want in [%v, %v]: what is left to the fence", budget, least, most)
		}
	}
	s.lastBeat.Store(clock.Mono() - int64(fence) - 1)
	if !s.fenced() {
		t.Fatal("not fenced once the monotonic clock passed the fence instant")
	}
	if r := put(); r.Status != wire.StatusUnavailable {
		t.Fatalf("put past the fence: %s, want Unavailable", r.Status)
	}
}

// epochMap returns m at epoch with the replicas named in recovering marked
// Recovering: the slots they owned move to the others.
func epochMap(m *topology.Map, epoch uint64, recovering ...string) *topology.Map {
	out := m.Clone()
	out.Epoch = epoch
	for i := range out.Shards[0].Replicas {
		r := &out.Shards[0].Replicas[i]
		r.Recovering = slices.Contains(recovering, r.ID)
	}
	return out
}

// A replica that installed the map in which a slot moved refuses write-all
// frames stamped with an earlier epoch for that slot, and frames from an
// epoch it has not installed; frames for a slot that kept its owner, and
// frames from the new epoch, are applied.
func TestAASCPeerRefusesStaleEpoch(t *testing.T) {
	sh := startShard(t, aasc, 2)
	n1, shard := sh.ctls[1], sh.m.Shards[0]
	moved, kept := ownedKey(t, shard, "n0"), ownedKey(t, shard, "n1")
	next := epochMap(sh.m, sh.m.Epoch+1, "n0") // n1 owns every slot
	n1.SetMap(next)
	repl := func(key []byte, epoch uint64) wire.Status {
		var resp wire.Response
		n1.dispatch(&wire.Request{Op: wire.OpReplPut, Key: key, Value: []byte("v"), Version: 1, Epoch: epoch}, &resp)
		return resp.Status
	}
	if st := repl(moved, sh.m.Epoch); st != wire.StatusWrongEpoch {
		t.Fatalf("frame from epoch %d for a slot that moved at %d: %s, want WrongEpoch", sh.m.Epoch, next.Epoch, st)
	}
	var resp wire.Response
	n1.localCall(&wire.Request{Op: wire.OpGet, Key: moved}, &resp)
	if resp.Status != wire.StatusNotFound {
		t.Fatalf("a refused frame was applied: %s %q", resp.Status, resp.Value)
	}
	if st := repl(kept, sh.m.Epoch); st != wire.StatusOK {
		t.Fatalf("frame from epoch %d for a slot that kept its owner: %s", sh.m.Epoch, st)
	}
	if st := repl(moved, next.Epoch); st != wire.StatusOK {
		t.Fatalf("frame from epoch %d: %s", next.Epoch, st)
	}
	if st := repl(kept, next.Epoch+1); st != wire.StatusWrongEpoch {
		t.Fatalf("frame from epoch %d, which this replica has not installed: %s, want WrongEpoch", next.Epoch+1, st)
	}

	// A batch frame is refused whole, and nothing of it applied, when any
	// pair's slot moved after its epoch; otherwise each pair is answered
	// with the version its key holds here.
	batch := func(pairs ...[]byte) *wire.Response {
		req := &wire.Request{Op: wire.OpReplMPut, Epoch: sh.m.Epoch}
		for _, k := range pairs {
			req.Pairs = append(req.Pairs, wire.KV{Key: k, Value: []byte("w"), Version: 9})
		}
		var resp wire.Response
		n1.dispatch(req, &resp)
		return &resp
	}
	if r := batch(kept, moved); r.Status != wire.StatusWrongEpoch {
		t.Fatalf("batch write-all from epoch %d with a moved slot: %s, want WrongEpoch", sh.m.Epoch, r.Status)
	}
	resp.Reset()
	n1.localCall(&wire.Request{Op: wire.OpGet, Key: kept}, &resp)
	if string(resp.Value) == "w" {
		t.Fatal("a refused batch frame was applied")
	}
	if r := batch(kept); r.Status != wire.StatusOK || len(r.Statuses) != 1 || r.Statuses[0] != wire.StatusOK || r.Pairs[0].Version != 9 {
		t.Fatalf("batch write-all for a kept slot: %s %v %+v, want OK at version 9", r.Status, r.Statuses, r.Pairs)
	}
}

// fakeControl is a previous owner's control endpoint whose Quiesce fails
// until answer is set.
type fakeControl struct {
	addr     string
	answer   atomic.Bool
	quiesces atomic.Int32
}

func startFakeControl(t *testing.T) *fakeControl {
	t.Helper()
	f := &fakeControl{}
	srv := rpc.NewServer()
	rpc.HandleFunc(srv, "UpdateMap", func(*topology.Map) (struct{}, error) { return struct{}{}, nil })
	rpc.HandleFunc(srv, "Quiesce", func(struct{}) (struct{}, error) {
		f.quiesces.Add(1)
		if !f.answer.Load() {
			return struct{}{}, errors.New("not answering")
		}
		return struct{}{}, nil
	})
	net, _ := transport.Lookup("inproc")
	addr, err := srv.Serve(net, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	f.addr = addr
	return f
}

// A slot gained from a previous owner still in the map stays unarmed, its
// ops refused, until that owner has answered the handoff barrier; once it
// answers, the slot is armed and served.
func TestAASCHandoffWaitsForPreviousOwner(t *testing.T) {
	peer, ctl := startFakePeer(t, wire.StatusOK), startFakeControl(t)
	prev := peer.node("prev")
	prev.ControlAddr = ctl.addr
	sh := startShard(t, aasc, 1, prev)
	s := sh.ctls[0]
	key := ownedKey(t, sh.m.Shards[0], "n0")
	s.SetMap(epochMap(sh.m, sh.m.Epoch+1, "n0")) // prev owns every slot
	s.SetMap(epochMap(sh.m, sh.m.Epoch+2))       // n0 gains key's slot back from prev

	do := func(req *wire.Request) wire.Status {
		var resp wire.Response
		s.dispatch(req, &resp)
		return resp.Status
	}
	put := &wire.Request{Op: wire.OpPut, Key: key, Value: []byte("v")}
	get := &wire.Request{Op: wire.OpGet, Key: key}
	for _, req := range []*wire.Request{put, get} {
		if st := do(req); st != wire.StatusUnavailable {
			t.Fatalf("%s on a slot whose previous owner has not quiesced: %s, want Unavailable", req.Op, st)
		}
	}
	if n := ctl.quiesces.Load(); n != 2 {
		t.Fatalf("%d Quiesce calls to the previous owner, want one per refused op", n)
	}
	ctl.answer.Store(true)
	if st := do(put); st != wire.StatusOK {
		t.Fatalf("put once the previous owner answered: %s", st)
	}
	if st := do(get); st != wire.StatusOK {
		t.Fatalf("get once the slot is armed: %s", st)
	}
	if n := ctl.quiesces.Load(); n != 3 {
		t.Fatalf("%d Quiesce calls, want 3: an armed slot needs no more", n)
	}
}

// A peer that holds a newer version of the key than the owner's write — an
// unacked write-all of an owner that died before this one's clock saw it —
// says so, and the owner writes all again above it: once the put is acked,
// every replica holds the acked value.
func TestAASCWriteAllRepairsShadowedPeer(t *testing.T) {
	sh := startShard(t, aasc, 3)
	key := ownedKey(t, sh.m.Shards[0], "n0")
	if _, err := sh.datalets[1].Engine("").Put(key, []byte("unacked"), sh.ctls[0].clock.Load()+1000); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	sh.ctls[0].dispatch(&wire.Request{Op: wire.OpPut, Key: key, Value: []byte("acked")}, &resp)
	if resp.Status != wire.StatusOK {
		t.Fatalf("put: %s %s", resp.Status, resp.Err)
	}
	for i, d := range sh.datalets {
		v, ver, ok, err := d.Engine("").AppendGet(nil, key)
		if err != nil || !ok || string(v) != "acked" {
			t.Fatalf("replica %d holds %q (version %d, found %v, %v) after the ack, want \"acked\"", i, v, ver, ok, err)
		}
		if ver != resp.Version {
			t.Fatalf("replica %d holds version %d, the ack says %d", i, ver, resp.Version)
		}
	}
}

// The owner applies a write locally only once every peer has it: a
// write-all that fails part-way leaves the owner's copy, which its reads
// return, as it was — never a value a later owner may lack.
func TestAASCFailedWriteAllLeavesOwnerCopy(t *testing.T) {
	sh := startShard(t, aasc, 1, startFakePeer(t, wire.StatusUnavailable).node("peer"))
	s := sh.ctls[0]
	key := ownedKey(t, sh.m.Shards[0], "n0")
	var resp wire.Response
	s.dispatch(&wire.Request{Op: wire.OpPut, Key: key, Value: []byte("v")}, &resp)
	if resp.Status != wire.StatusUnavailable {
		t.Fatalf("put whose write-all the peer refused: %s, want Unavailable", resp.Status)
	}
	resp.Reset()
	s.dispatch(&wire.Request{Op: wire.OpGet, Key: key}, &resp)
	if resp.Status != wire.StatusNotFound {
		t.Fatalf("get at the owner after a failed write-all: %s %q, want NotFound", resp.Status, resp.Value)
	}
}

// A 64-key MultiPut at the owner of every key's slot is one write-all frame
// to each peer and one frame to the owner's datalet, all versions decided
// at the owner; a Put keeps its single-key frames.
func TestAASCBatchFrames(t *testing.T) {
	local := startFakePeer(t, wire.StatusOK) // the owner's datalet
	peers := []*fakePeer{startFakePeer(t, wire.StatusOK), startFakePeer(t, wire.StatusOK)}
	net, _ := transport.Lookup("inproc")
	s, err := Serve(Config{NodeID: "n0", ShardID: "shard-0", Network: net, Codec: wire.BinaryCodec{},
		Mode: aasc, DataletAddr: local.l.Addr(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	m := &topology.Map{Epoch: 5, Mode: aasc, Partitioner: topology.HashPartitioner, Shards: []topology.Shard{{
		ID: "shard-0", Replicas: []topology.Node{s.Node(), peers[0].node("p1"), peers[1].node("p2")},
	}}}
	s.SetMap(m)
	const n = 64
	keys := ownedKeys(t, m.Shards[0], "n0", n)
	req := &wire.Request{Op: wire.OpMPut}
	for i, k := range keys {
		req.Pairs = append(req.Pairs, wire.KV{Key: k, Value: []byte(fmt.Sprint(i))})
	}
	before := ctlReplicateAll.Value()
	var resp wire.Response
	s.dispatch(req, &resp)
	if resp.Status != wire.StatusOK || len(resp.Statuses) != n {
		t.Fatalf("mput: %s %s, %d statuses", resp.Status, resp.Err, len(resp.Statuses))
	}
	for i, st := range resp.Statuses {
		if st != wire.StatusOK || (i > 0 && resp.Pairs[i].Version <= resp.Pairs[i-1].Version) {
			t.Fatalf("pair %d: %s at version %d", i, st, resp.Pairs[i].Version)
		}
	}
	if d := ctlReplicateAll.Value() - before; d != 2 {
		t.Fatalf("%d write-all frames for one batch at a 3-replica owner, want 2", d)
	}
	for i, p := range peers {
		if frames, pairs := p.seen(wire.OpReplMPut); frames != 1 || pairs != n {
			t.Fatalf("peer %d: %d OpReplMPut frames with %d pairs, want 1 with %d", i, frames, pairs, n)
		}
		if frames, _ := p.seen(wire.OpReplPut); frames != 0 {
			t.Fatalf("peer %d: %d single-key write-all frames for a batch", i, frames)
		}
	}
	if frames, pairs := local.seen(wire.OpMPut); frames != 1 || pairs != n {
		t.Fatalf("owner's datalet: %d OpMPut frames with %d pairs, want 1 with %d", frames, pairs, n)
	}

	resp.Reset()
	s.dispatch(&wire.Request{Op: wire.OpPut, Key: keys[0], Value: []byte("one")}, &resp)
	if resp.Status != wire.StatusOK {
		t.Fatalf("put: %s %s", resp.Status, resp.Err)
	}
	for i, p := range peers {
		if frames, pairs := p.seen(wire.OpReplPut); frames != 1 || pairs != 0 {
			t.Fatalf("peer %d: %d OpReplPut frames (%d pairs) for a put, want 1 single-key frame", i, frames, pairs)
		}
	}
	if frames, _ := local.seen(wire.OpPut); frames != 1 {
		t.Fatalf("owner's datalet: %d OpPut frames for a put, want 1", frames)
	}
}

// A batch pair a peer holds at a newer version goes, alone, into a second
// write-all, versioned above it; every other pair is acked at the version
// of the first. Every replica ends up holding every acked pair.
func TestAASCBatchRetriesOnlyRacedPairs(t *testing.T) {
	sh := startShard(t, aasc, 3)
	keys := ownedKeys(t, sh.m.Shards[0], "n0", 4)
	shadow := sh.ctls[0].clock.Load() + 1000
	if _, err := sh.datalets[1].Engine("").Put(keys[2], []byte("unacked"), shadow); err != nil {
		t.Fatal(err)
	}
	req := &wire.Request{Op: wire.OpMPut}
	for _, k := range keys {
		req.Pairs = append(req.Pairs, wire.KV{Key: k, Value: []byte("acked")})
	}
	before := ctlReplicateAll.Value()
	var resp wire.Response
	sh.ctls[0].dispatch(req, &resp)
	if resp.Status != wire.StatusOK {
		t.Fatalf("mput: %s %s", resp.Status, resp.Err)
	}
	if d := ctlReplicateAll.Value() - before; d != 4 {
		t.Fatalf("%d write-all frames, want 4: two attempts to two peers", d)
	}
	for i := range keys {
		if st, ver := resp.Statuses[i], resp.Pairs[i].Version; st != wire.StatusOK || (i == 2) != (ver > shadow) {
			t.Fatalf("pair %d acked %s at version %d; only the raced pair goes above %d", i, st, ver, shadow)
		}
	}
	for r, d := range sh.datalets {
		for i, k := range keys {
			v, ver, ok, err := d.Engine("").AppendGet(nil, k)
			if err != nil || !ok || string(v) != "acked" || ver != resp.Pairs[i].Version {
				t.Fatalf("replica %d holds pair %d as %q at %d (found %v, %v); acked at %d", r, i, v, ver, ok, err, resp.Pairs[i].Version)
			}
		}
	}
}

// A pair a replica keeps answering at a newer version fails alone once the
// write-all attempts run out: the batch's other pairs are acked at the
// version of the first attempt, and a Put of that key fails whole.
func TestAASCShadowedPairFailsAlone(t *testing.T) {
	peer := startFakePeer(t, wire.StatusOK)
	sh := startShard(t, aasc, 1, peer.node("peer"))
	s := sh.ctls[0]
	keys := ownedKeys(t, sh.m.Shards[0], "n0", 3)
	peer.shadow = keys[1]
	req := &wire.Request{Op: wire.OpMPut}
	for _, k := range keys {
		req.Pairs = append(req.Pairs, wire.KV{Key: k, Value: []byte("v")})
	}
	before := ctlReplicateAll.Value()
	var resp wire.Response
	s.dispatch(req, &resp)
	if resp.Status != wire.StatusOK || fmt.Sprint(resp.Statuses) != fmt.Sprint([]wire.Status{wire.StatusOK, wire.StatusErr, wire.StatusOK}) {
		t.Fatalf("mput with a shadowed pair: %s %s %v, want OK with only pair 1 failed", resp.Status, resp.Err, resp.Statuses)
	}
	if d := ctlReplicateAll.Value() - before; d != versionAttempts {
		t.Fatalf("%d write-all frames, want %d: every attempt", d, versionAttempts)
	}
	for i, k := range keys {
		var got wire.Response
		s.localCall(&wire.Request{Op: wire.OpGet, Key: k}, &got)
		if applied := got.Status == wire.StatusOK; applied != (i != 1) || (applied && got.Version != resp.Pairs[i].Version) {
			t.Fatalf("pair %d at the owner: %s at %d, acked %s at %d", i, got.Status, got.Version, resp.Statuses[i], resp.Pairs[i].Version)
		}
	}
	resp.Reset()
	s.dispatch(&wire.Request{Op: wire.OpPut, Key: keys[1], Value: []byte("v")}, &resp)
	if resp.Status != wire.StatusErr {
		t.Fatalf("put of the shadowed key: %s %s, want Err", resp.Status, resp.Err)
	}
}
