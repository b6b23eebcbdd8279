package client

import (
	"bufio"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/coordinator"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// fakeServer answers every request via fn.
func fakeServer(t *testing.T, fn func(req *wire.Request, resp *wire.Response)) string {
	t.Helper()
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	l, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				var req wire.Request
				var resp wire.Response
				for {
					req.Reset()
					if err := codec.ReadRequest(br, &req); err != nil {
						return
					}
					resp.Reset()
					resp.ID = req.ID
					fn(&req, &resp)
					if err := codec.WriteResponse(bw, &resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr()
}

func staticMapTo(addr string) *topology.Map {
	return &topology.Map{
		Epoch:       1,
		Mode:        topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Partitioner: topology.HashPartitioner,
		Shards: []topology.Shard{{
			ID: "s0",
			Replicas: []topology.Node{
				{ID: "n0", ControletAddr: addr, DataletAddr: "d0"},
			},
		}},
	}
}

func newStaticClient(t *testing.T, m *topology.Map) *Client {
	t.Helper()
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	c, err := New(Config{Network: net, Codec: codec, StaticMap: m, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestStaticMapPutGet(t *testing.T) {
	stored := map[string]string{}
	addr := fakeServer(t, func(req *wire.Request, resp *wire.Response) {
		switch req.Op {
		case wire.OpPut:
			stored[string(req.Key)] = string(req.Value)
			resp.Status = wire.StatusOK
		case wire.OpGet:
			v, ok := stored[string(req.Key)]
			if !ok {
				resp.Status = wire.StatusNotFound
				return
			}
			resp.Status = wire.StatusOK
			resp.Value = []byte(v)
		}
	})
	c := newStaticClient(t, staticMapTo(addr))
	if err := c.Put("", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("", []byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("(%q,%v,%v)", v, ok, err)
	}
	if _, ok, _ := c.Get("", []byte("missing")); ok {
		t.Fatal("missing key found")
	}
}

func TestClientFollowsRedirect(t *testing.T) {
	var served atomic.Int64
	right := fakeServer(t, func(req *wire.Request, resp *wire.Response) {
		served.Add(1)
		resp.Status = wire.StatusOK
		resp.Value = []byte("from-right")
	})
	wrong := fakeServer(t, func(req *wire.Request, resp *wire.Response) {
		resp.Status = wire.StatusRedirect
		resp.Err = right
	})
	c := newStaticClient(t, staticMapTo(wrong))
	v, ok, err := c.Get("", []byte("k"))
	if err != nil || !ok || string(v) != "from-right" {
		t.Fatalf("(%q,%v,%v)", v, ok, err)
	}
	if served.Load() == 0 {
		t.Fatal("redirect target never reached")
	}
}

func TestClientRetriesUnavailableThenFails(t *testing.T) {
	var calls atomic.Int64
	addr := fakeServer(t, func(req *wire.Request, resp *wire.Response) {
		calls.Add(1)
		resp.Status = wire.StatusUnavailable
		resp.Err = "always down"
	})
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	c, err := New(Config{Network: net, Codec: codec, StaticMap: staticMapTo(addr), Retries: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("", []byte("k"), []byte("v")); err == nil {
		t.Fatal("put against unavailable server must eventually fail")
	}
	if calls.Load() != 3 {
		t.Fatalf("server called %d times, want the retry budget of 3", calls.Load())
	}
}

// TestFlappingEpochBackoff pins the stale-epoch retry loop's backoff: a
// server that always answers WrongEpoch (an epoch flapping faster than the
// client can refresh, e.g. mid-migration) must not be retried hot. With
// Retries=5 and RetryBackoff=8ms the four inter-attempt sleeps draw from
// [4,8) + [8,16) + [16,32) + [32,64) ms, so even the jitter floor sums to
// 60ms — a busy-spin regression finishes orders of magnitude faster.
func TestFlappingEpochBackoff(t *testing.T) {
	var calls atomic.Int64
	addr := fakeServer(t, func(req *wire.Request, resp *wire.Response) {
		calls.Add(1)
		resp.Status = wire.StatusWrongEpoch
		resp.Epoch = req.Epoch + 1 // always "just moved"
	})
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	c, err := New(Config{
		Network: net, Codec: codec, StaticMap: staticMapTo(addr),
		Retries: 5, RetryBackoff: 8 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Put("", []byte("k"), []byte("v"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("put against a flapping epoch must eventually fail")
	}
	if got := calls.Load(); got != 5 {
		t.Fatalf("server called %d times, want the retry budget of 5", got)
	}
	if elapsed < 55*time.Millisecond {
		t.Fatalf("5 attempts finished in %v: retry loop is busy-spinning", elapsed)
	}
}

func TestClientSurfacesServerError(t *testing.T) {
	addr := fakeServer(t, func(req *wire.Request, resp *wire.Response) {
		resp.Status = wire.StatusErr
		resp.Err = "engine exploded"
	})
	c := newStaticClient(t, staticMapTo(addr))
	err := c.Put("", []byte("k"), []byte("v"))
	if err == nil {
		t.Fatal("server error swallowed")
	}
}

func TestConfigValidation(t *testing.T) {
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	if _, err := New(Config{Network: net, Codec: codec}); err == nil {
		t.Fatal("neither coordinator nor static map must be rejected")
	}
	if _, err := New(Config{Network: net, Codec: codec, CoordinatorAddr: "x", StaticMap: staticMapTo("y")}); err == nil {
		t.Fatal("both coordinator and static map must be rejected")
	}
	if _, err := New(Config{Codec: codec, StaticMap: staticMapTo("y")}); err == nil {
		t.Fatal("missing network must be rejected")
	}
}

func routingMap(mode topology.Mode) *topology.Map {
	return &topology.Map{
		Epoch:       1,
		Mode:        mode,
		Partitioner: topology.HashPartitioner,
		Shards: []topology.Shard{{
			ID: "s0",
			Replicas: []topology.Node{
				{ID: "head", ControletAddr: "a-head"},
				{ID: "mid", ControletAddr: "a-mid"},
				{ID: "tail", ControletAddr: "a-tail"},
			},
		}},
	}
}

func TestWriteTargetSelection(t *testing.T) {
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	msMap := routingMap(topology.Mode{Topology: topology.MS, Consistency: topology.Strong})
	c, err := New(Config{Network: net, Codec: codec, StaticMap: msMap, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.writeTarget(msMap, msMap.Shards[0], []byte("k")); got.ID != "head" {
		t.Fatalf("MS write target = %s", got.ID)
	}
	aaMap := routingMap(topology.Mode{Topology: topology.AA, Consistency: topology.Eventual})
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[c.writeTarget(aaMap, aaMap.Shards[0], []byte("k")).ID] = true
	}
	if len(seen) != 3 {
		t.Fatalf("AA writes hit %d replicas, want all 3", len(seen))
	}
}

func TestReadTargetSelection(t *testing.T) {
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	msSC := routingMap(topology.Mode{Topology: topology.MS, Consistency: topology.Strong})
	c, err := New(Config{Network: net, Codec: codec, StaticMap: msSC, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// MS+SC default (strong) reads go to the tail.
	for i := 0; i < 10; i++ {
		if got := c.readTarget(msSC, msSC.Shards[0], []byte("k"), wire.LevelDefault); got.ID != "tail" {
			t.Fatalf("strong read target = %s", got.ID)
		}
	}
	// Eventual reads spread over replicas.
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[c.readTarget(msSC, msSC.Shards[0], []byte("k"), wire.LevelEventual).ID] = true
	}
	if len(seen) != 3 {
		t.Fatalf("eventual reads hit %d replicas", len(seen))
	}
	// MS+EC strong reads go to the master.
	msEC := routingMap(topology.Mode{Topology: topology.MS, Consistency: topology.Eventual})
	if got := c.readTarget(msEC, msEC.Shards[0], []byte("k"), wire.LevelStrong); got.ID != "head" {
		t.Fatalf("MS+EC strong read target = %s", got.ID)
	}
}

// Under AA+SC a key's writes and strong reads go to its slot's owner, the
// replica that keeps the slot's DLM lease; its eventual reads go anywhere.
func TestSlotOwnerRouting(t *testing.T) {
	aasc := routingMap(topology.Mode{Topology: topology.AA, Consistency: topology.Strong})
	c := newStaticClient(t, aasc)
	shard := aasc.Shards[0]
	owners := map[string]bool{}
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		owner := shard.SlotOwner(topology.SlotOf(key)).ID
		owners[owner] = true
		if got := c.writeTarget(aasc, shard, key).ID; got != owner {
			t.Fatalf("%s: write target %s, owner %s", key, got, owner)
		}
		if got := c.readTarget(aasc, shard, key, wire.LevelDefault).ID; got != owner {
			t.Fatalf("%s: strong read target %s, owner %s", key, got, owner)
		}
	}
	if len(owners) != len(shard.Replicas) {
		t.Fatalf("64 keys reached %d owners, want every replica", len(owners))
	}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[c.readTarget(aasc, shard, []byte("key-0"), wire.LevelEventual).ID] = true
	}
	if len(seen) != 3 {
		t.Fatalf("eventual reads of one key hit %d replicas, want all 3", len(seen))
	}
}

// Picking a routed MS+SC GET's target — map snapshot, ring lookup, route row,
// tail — allocates nothing.
func TestReadTargetZeroAllocs(t *testing.T) {
	msSC := routingMap(topology.Mode{Topology: topology.MS, Consistency: topology.Strong})
	c := newStaticClient(t, msSC)
	key := []byte("user000000000042")
	var addr string
	allocs := testing.AllocsPerRun(1000, func() {
		shard, m, err := c.shardFor(key)
		if err != nil {
			t.Fatal(err)
		}
		addr = c.readTarget(m, shard, key, wire.LevelDefault).ControletAddr
	})
	if addr != "a-tail" || allocs != 0 {
		t.Fatalf("GET target %s with %.0f allocs, want a-tail with 0", addr, allocs)
	}
}

func TestShardForRoutesConsistently(t *testing.T) {
	m := &topology.Map{
		Epoch:       1,
		Mode:        topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Partitioner: topology.HashPartitioner,
	}
	for i := 0; i < 4; i++ {
		m.Shards = append(m.Shards, topology.Shard{
			ID:       fmt.Sprintf("s%d", i),
			Replicas: []topology.Node{{ID: fmt.Sprintf("n%d", i), ControletAddr: fmt.Sprintf("a%d", i)}},
		})
	}
	c := newStaticClient(t, m)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		s1, _, err := c.shardFor(k)
		if err != nil {
			t.Fatal(err)
		}
		s2, _, _ := c.shardFor(k)
		if s1.ID != s2.ID {
			t.Fatalf("routing unstable for %q", k)
		}
	}
}

// BenchmarkRandIntParallel exercises the replica-pick path from many
// goroutines at once — the shape of a fan-out MultiGet. math/rand/v2's
// per-P sharded global source keeps this contention-free; the old shared
// *rand.Rand behind a mutex serialized every pick.
func BenchmarkRandIntParallel(b *testing.B) {
	c := &Client{}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = c.randInt(3)
		}
	})
}

// TestSurvivesCoordinatorRestart: a coordinator that comes back on the same
// address — with its state gone, so the map has to be installed again — is
// found again by the two coordinator clients a Client has for its lifetime:
// the refresh client on the next refreshMap, the watch client on its next
// long-poll. Neither is ever replaced.
func TestSurvivesCoordinatorRestart(t *testing.T) {
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	const addr = "client-test-coordinator-restart"
	var srv *coordinator.Server
	serve := func() {
		var err error
		srv, err = coordinator.Serve(coordinator.Config{Network: net, Addr: addr, DisableFailover: true, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
	}
	install := func(m *topology.Map) uint64 {
		t.Helper()
		admin, err := coordinator.DialCoordinator(net, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer admin.Close()
		epoch, err := admin.SetMap(m)
		if err != nil {
			t.Fatal(err)
		}
		return epoch
	}
	serve()
	defer func() { srv.Close() }()
	m := staticMapTo(fakeServer(t, func(*wire.Request, *wire.Response) {}))
	m.Epoch = install(m)

	newClient := func(disableWatch bool) *Client {
		c, err := New(Config{Network: net, Codec: codec, CoordinatorAddr: addr, DisableWatch: disableWatch, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	refresher, watcher := newClient(true), newClient(false)
	coord, watch := refresher.coord, watcher.watch

	srv.Close()
	serve()
	m.Epoch = install(m)

	refresher.refreshMap()
	if got := refresher.Map().Epoch; got != m.Epoch {
		t.Fatalf("refresh after the restart: epoch %d, want %d", got, m.Epoch)
	}
	deadline := time.Now().Add(5 * time.Second)
	for watcher.Map().Epoch != m.Epoch {
		if time.Now().After(deadline) {
			t.Fatalf("watch after the restart: epoch %d, want %d", watcher.Map().Epoch, m.Epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if refresher.coord != coord || watcher.watch != watch {
		t.Fatal("a coordinator client was replaced")
	}
}
