package controlet

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bespokv/internal/clock"
	"bespokv/internal/datalet"
	"bespokv/internal/migrate"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// fakePeer stands in for a peer controlet, or a datalet: it answers every
// frame with one fixed status — a multi-op frame with that status for
// every pair, at the pair's version — and remembers what it was sent.
type fakePeer struct {
	l      transport.Listener
	status wire.Status
	// hold, when set before the first frame, is received from before each
	// answer: closing it lets the peer answer.
	hold chan struct{}
	// shadow, when set before the first frame, is a key the peer answers
	// as held at one version above whatever a frame carries for it.
	shadow []byte

	mu        sync.Mutex
	epochs    map[wire.Op]uint64 // epoch of the last frame seen, by op
	deadlines map[wire.Op]uint64 // deadline budget of the last frame seen, by op
	frames    map[wire.Op]int    // frames seen, by op
	pairs     map[wire.Op]int    // pairs those frames carried, by op
	largest   int                // the most key and value bytes one frame carried
	trail     []string           // every frame seen: its op and its keys
}

func startFakePeer(t *testing.T, status wire.Status) *fakePeer {
	t.Helper()
	net, _ := transport.Lookup("inproc")
	l, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakePeer{l: l, status: status, epochs: map[wire.Op]uint64{}, deadlines: map[wire.Op]uint64{},
		frames: map[wire.Op]int{}, pairs: map[wire.Op]int{}}
	// Registered before the controlets that dial it, so it runs after they
	// closed their peer pools and every serving goroutine has seen EOF.
	var wg sync.WaitGroup
	t.Cleanup(func() {
		l.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
				codec := wire.BinaryCodec{}
				var req wire.Request
				for {
					req.Reset()
					if codec.ReadRequest(br, &req) != nil {
						return
					}
					f.mu.Lock()
					f.epochs[req.Op] = req.Epoch
					f.deadlines[req.Op] = req.Deadline
					f.frames[req.Op]++
					f.pairs[req.Op] += len(req.Pairs)
					size, keys := len(req.Key)+len(req.Value), []string{string(req.Key)}
					if len(req.Pairs) > 0 {
						size, keys = 0, keys[:0]
						for _, kv := range req.Pairs {
							size, keys = size+len(kv.Key)+len(kv.Value), append(keys, string(kv.Key))
						}
					}
					f.largest = max(f.largest, size)
					f.trail = append(f.trail, req.Op.String()+" "+strings.Join(keys, ","))
					f.mu.Unlock()
					if f.hold != nil {
						<-f.hold
					}
					held := func(key []byte, version uint64) uint64 {
						if f.shadow != nil && bytes.Equal(key, f.shadow) {
							return version + 1
						}
						return version
					}
					resp := wire.Response{ID: req.ID, Status: f.status, Err: "fake peer", Version: held(req.Key, req.Version)}
					for _, kv := range req.Pairs {
						resp.Pairs = append(resp.Pairs, wire.KV{Version: held(kv.Key, kv.Version)})
						resp.Statuses = append(resp.Statuses, f.status)
					}
					if codec.WriteResponse(bw, &resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return f
}

func (f *fakePeer) node(id string) topology.Node {
	return topology.Node{ID: id, ControletAddr: f.l.Addr()}
}

// seen returns how many frames of op the peer was sent and how many pairs
// they carried.
func (f *fakePeer) seen(op wire.Op) (frames, pairs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frames[op], f.pairs[op]
}

// opStatus is what the client learns about pair i of a write: the frame's
// status when the frame failed as a whole, the pair's own otherwise.
func opStatus(resp *wire.Response, i int) wire.Status {
	if resp.Status != wire.StatusOK || len(resp.Statuses) == 0 {
		return resp.Status
	}
	return resp.Statuses[i]
}

func mputOf(prefix string, n int) *wire.Request {
	req := &wire.Request{Op: wire.OpMPut}
	for i := 0; i < n; i++ {
		req.Pairs = append(req.Pairs, wire.KV{
			Key:   []byte(fmt.Sprintf("%s-%02d", prefix, i)),
			Value: []byte(fmt.Sprintf("v-%02d", i)),
		})
	}
	return req
}

// TestWritePathSingleEqualsBatch holds the one write pipeline to its claim
// in every mode: N Puts and one N-pair MPut leave the same state on every
// replica and in an active migration's destination, and a failure on the
// way means the same thing to the client whatever the frame's arity.
func TestWritePathSingleEqualsBatch(t *testing.T) {
	for _, mode := range fourModes {
		mode := mode
		strong := mode.Consistency == topology.Strong
		t.Run(mode.String()+"/state", func(t *testing.T) { testWriteState(t, mode) })
		t.Run(mode.String()+"/deadline", func(t *testing.T) {
			// A budget that runs out between the front door and the local
			// apply (dispatch skips dispatchAdmit's arrival check).
			s := startShard(t, mode, 1).ctls[0]
			spent := clock.Mono() - int64(time.Second)
			var one, many wire.Response
			s.dispatch(&wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v"), DeadlineAt: spent}, &one)
			batch := mputOf("k", 3)
			batch.DeadlineAt = spent
			s.dispatch(batch, &many)
			for i := range batch.Pairs {
				if a, b := opStatus(&one, 0), opStatus(&many, i); a != wire.StatusOverloaded || b != a {
					t.Fatalf("spent deadline: put %v, mput pair %d %v; want Overloaded for both", a, i, b)
				}
			}
		})
		for _, down := range []wire.Status{wire.StatusOverloaded, wire.StatusUnavailable} {
			down := down
			t.Run(fmt.Sprintf("%s/downstream-%s", mode, down), func(t *testing.T) {
				// Only the modes that wait for their peers before the ack
				// can learn of a peer's refusal.
				want := wire.StatusOK
				if strong {
					want = down
				}
				s := startShard(t, mode, 1, startFakePeer(t, down).node("peer")).ctls[0]
				var one, many wire.Response
				s.dispatchAdmit(&wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v")}, &one)
				batch := mputOf("k", 3)
				s.dispatchAdmit(batch, &many)
				for i := range batch.Pairs {
					if a, b := opStatus(&one, 0), opStatus(&many, i); a != want || b != want {
						t.Fatalf("peer answers %v: put %v, mput pair %d %v; want %v for both", down, a, i, b, want)
					}
				}
			})
		}
	}
}

func testWriteState(t *testing.T, mode topology.Mode) {
	const n = 16
	sh := startShard(t, mode, 3)
	dest := startDatalet(t, "dest", nil)
	target := sh.m.Clone()
	target.Shards = append(target.Shards, topology.Shard{
		ID:       "shard-1",
		Replicas: []topology.Node{{ID: "dest", DataletAddr: dest.Addr()}},
	})
	for _, s := range sh.ctls {
		if _, err := s.handleMigrateOut(migrate.Spec{ID: "mig-1", SourceShard: "shard-0", Target: target}); err != nil {
			t.Fatal(err)
		}
	}

	net, _ := transport.Lookup("inproc")
	cli, err := datalet.Dial(net, sh.ctls[0].DataAddr(), wire.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	batch := mputOf("m", n)
	var resp wire.Response
	for i := 0; i < n; i++ {
		single := wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("s-%02d", i)), Value: batch.Pairs[i].Value}
		if err := cli.Do(&single, &resp); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("put %d: %v %+v", i, err, resp)
		}
	}
	if err := cli.Do(batch, &resp); err != nil || resp.Status != wire.StatusOK || len(resp.Statuses) != n {
		t.Fatalf("mput: %v %+v", err, resp)
	}
	for i, st := range resp.Statuses {
		if st != wire.StatusOK {
			t.Fatalf("mput pair %d: %v", i, st)
		}
	}

	// The EC modes replicate after the ack; give them time to converge.
	type rec struct {
		value   string
		version uint64
	}
	read := func(d *datalet.Server, key string) (rec, bool) {
		v, ver, ok, err := d.Engine("").AppendGet(nil, []byte(key))
		if err != nil {
			t.Fatal(err)
		}
		return rec{string(v), ver}, ok
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, d := range sh.datalets {
		for i := 0; i < n; i++ {
			for _, prefix := range []string{"s", "m"} {
				key := fmt.Sprintf("%s-%02d", prefix, i)
				for _, ok := read(d, key); !ok; _, ok = read(d, key) {
					if time.Now().After(deadline) {
						t.Fatalf("%s never reached a replica", key)
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}
	}

	// Same values, same versions on every replica, and both arities in
	// issue order — a batch's at each orderer: under AA+SC the entry node
	// relays the pairs of other owners' slots and writes all of its own in
	// one set.
	orderer := func(key string) string {
		if mode.Topology == topology.AA && mode.Consistency == topology.Strong {
			return sh.m.Shards[0].SlotOwner(topology.SlotOf([]byte(key))).ID
		}
		return ""
	}
	var prevS uint64
	prevM := map[string]uint64{}
	for i := 0; i < n; i++ {
		sKey, mKey := fmt.Sprintf("s-%02d", i), fmt.Sprintf("m-%02d", i)
		s0, _ := read(sh.datalets[0], sKey)
		m0, _ := read(sh.datalets[0], mKey)
		if want := fmt.Sprintf("v-%02d", i); s0.value != want || m0.value != want {
			t.Fatalf("pair %d: put stored %q, mput stored %q, want %q", i, s0.value, m0.value, want)
		}
		if o := orderer(mKey); s0.version <= prevS || m0.version <= prevM[o] {
			t.Fatalf("pair %d: versions out of issue order (put %d after %d, mput %d after %d)",
				i, s0.version, prevS, m0.version, prevM[o])
		}
		prevS, prevM[orderer(mKey)] = s0.version, m0.version
		for r, d := range sh.datalets[1:] {
			if s, _ := read(d, sKey); s != s0 {
				t.Fatalf("replica %d holds %s as %+v, replica 0 as %+v", r+1, sKey, s, s0)
			}
			if m, _ := read(d, mKey); m != m0 {
				t.Fatalf("replica %d holds %s as %+v, replica 0 as %+v", r+1, mKey, m, m0)
			}
		}
	}

	// The migration destination holds exactly the moving keys, at the
	// source's versions, whichever arity wrote them.
	for _, s := range sh.ctls {
		s.mig.Load().mover.DrainQueue()
	}
	mover := sh.ctls[0].mig.Load().mover
	moved := map[string]int{}
	for i := 0; i < n; i++ {
		for _, prefix := range []string{"s", "m"} {
			key := fmt.Sprintf("%s-%02d", prefix, i)
			src, _ := read(sh.datalets[0], key)
			got, ok := read(dest, key)
			if !mover.Moves([]byte(key)) {
				if ok {
					t.Fatalf("%s does not move but was mirrored", key)
				}
				continue
			}
			moved[prefix]++
			if !ok || got != src {
				t.Fatalf("%s mirrored as %+v (found=%v), source holds %+v", key, got, ok, src)
			}
		}
	}
	if moved["s"] == 0 || moved["m"] == 0 {
		t.Fatalf("mirror not exercised on both arities: %v", moved)
	}
}

// TestChainForwardStampsOwnEpoch: a mid-chain node forwards with its own
// map's epoch whatever the frame's arity. It used to pass the head's epoch
// through on OpChainMPut and stamp its own on OpChainPut/Del, so what the
// successor compared against its map depended on how many pairs rode in
// the frame.
func TestChainForwardStampsOwnEpoch(t *testing.T) {
	tail := startFakePeer(t, wire.StatusOK)
	sh := startShard(t, topology.Mode{Topology: topology.MS, Consistency: topology.Strong}, 1)
	mid := sh.ctls[0]
	sh.m.Epoch = 7
	sh.m.Shards[0].Replicas = []topology.Node{{ID: "head"}, mid.Node(), tail.node("tail")}
	mid.SetMap(sh.m)

	const headEpoch = 3 // the head is a map behind
	frames := []*wire.Request{
		{Op: wire.OpChainPut, Key: []byte("k"), Value: []byte("v"), Version: 10, Epoch: headEpoch},
		{Op: wire.OpChainDel, Key: []byte("k"), Version: 11, Epoch: headEpoch},
		{Op: wire.OpChainMPut, Pairs: []wire.KV{{Key: []byte("k"), Value: []byte("v"), Version: 12}}, Epoch: headEpoch},
	}
	for _, req := range frames {
		var resp wire.Response
		if mid.dispatchAdmit(req, &resp); resp.Status != wire.StatusOK {
			t.Fatalf("%s: %+v", req.Op, resp)
		}
		tail.mu.Lock()
		got, seen := tail.epochs[req.Op]
		tail.mu.Unlock()
		if !seen || got != 7 {
			t.Fatalf("%s reached the tail with epoch %d (seen=%v), want the forwarding node's 7", req.Op, got, seen)
		}
	}
}

// TestWriteToUnknownTable: a write to a table that does not exist is
// refused on both arities. A single Put used to be acked though nothing
// was stored, and an MPut indexed a nil status slice and took the whole
// controlet process down.
func TestWriteToUnknownTable(t *testing.T) {
	for _, mode := range fourModes {
		s := startShard(t, mode, 1).ctls[0]
		var one, many wire.Response
		s.dispatchAdmit(&wire.Request{Op: wire.OpPut, Table: "nope", Key: []byte("k"), Value: []byte("v")}, &one)
		batch := mputOf("k", 2)
		batch.Table = "nope"
		s.dispatchAdmit(batch, &many)
		if a, b := opStatus(&one, 0), opStatus(&many, 0); a != wire.StatusErr || b != wire.StatusErr {
			t.Fatalf("%s: put %v, mput %v; want Err for both", mode, a, b)
		}
	}
}
