package controlet

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"bespokv/internal/clock"
	"bespokv/internal/coordinator"
	"bespokv/internal/datalet"
	"bespokv/internal/faultnet"
	"bespokv/internal/store"
	"bespokv/internal/store/ht"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

func TestLogRecordRoundtrip(t *testing.T) {
	f := func(origin, shard, table string, adj uint64, key, value []byte, del bool) bool {
		out, err := decodeLogRecord(encodeLogRecord(origin, shard, adj, del, table, key, value))
		if err != nil {
			return false
		}
		return string(out.origin) == origin && string(out.shard) == shard && out.adj == adj && out.del == del &&
			string(out.table) == table && bytes.Equal(out.key, key) && bytes.Equal(out.value, value)
	}
	if !f("s0-r1", "shard-0", "jobs", 7, []byte("key-1"), []byte("value-1"), true) {
		t.Fatal("roundtrip mismatch")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLogRecordDecodeRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{nil, {}, {1}, {0, 0xff}, {1, 5, 'a'}} {
		if _, err := decodeLogRecord(raw); err == nil && len(raw) > 0 && raw[0] > 1 {
			t.Fatalf("garbage %v decoded", raw)
		}
	}
	// A truncated valid record must error, not panic.
	full := encodeLogRecord("o", "s", 0, false, "t", []byte("k"), []byte("v"))
	for cut := 1; cut < len(full); cut++ {
		if _, err := decodeLogRecord(full[:cut]); err == nil {
			t.Fatalf("truncated record at %d decoded", cut)
		}
	}
}

// startControlet boots a minimal single-node MS+SC controlet (no
// coordinator) over an ht datalet for white-box tests.
func startControlet(t *testing.T, mode topology.Mode) (*Server, *datalet.Server) {
	t.Helper()
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	d, err := datalet.Serve(datalet.Config{
		Name:      "ut-datalet",
		Network:   net,
		Codec:     codec,
		NewEngine: func(string) (store.Engine, error) { return ht.New(), nil },
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	s, err := Serve(Config{
		NodeID:       "ut-node",
		ShardID:      "ut-shard",
		Network:      net,
		Codec:        codec,
		DataletAddr:  d.Addr(),
		DataletCodec: codec,
		Mode:         mode,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, d
}

func TestStandaloneControletServesWithoutMap(t *testing.T) {
	s, _ := startControlet(t, topology.Mode{Topology: topology.MS, Consistency: topology.Strong})
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	cli, err := datalet.Dial(net, s.DataAddr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var resp wire.Response
	if err := cli.Do(&wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v")}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v", resp)
	}
	if err := cli.Do(&wire.Request{Op: wire.OpGet, Key: []byte("k")}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK || string(resp.Value) != "v" {
		t.Fatalf("get: %+v", resp)
	}
}

func TestOrderLamportBumpsPastNewerVersions(t *testing.T) {
	s, d := startControlet(t, topology.Mode{Topology: topology.MS, Consistency: topology.Eventual})
	// Plant a value with a version far above the controlet's clock, as a
	// prior AA+EC era would leave behind.
	planted := uint64(1)<<63 + 42
	if _, err := d.Engine("").Put([]byte("k"), []byte("old-era"), planted); err != nil {
		t.Fatal(err)
	}
	w := decodeWrite(&wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("new-era")})
	defer w.release()
	if err := s.orderLamport(w); err != nil {
		t.Fatal(err)
	}
	ver := w.pairs[0].Version
	if ver <= planted {
		t.Fatalf("assigned version %d did not pass planted %d", ver, planted)
	}
	v, gotVer, ok, _ := d.Engine("").AppendGet(nil, []byte("k"))
	if !ok || string(v) != "new-era" || gotVer != ver {
		t.Fatalf("write shadowed by old era: (%q,%d,%v)", v, gotVer, ok)
	}
}

func TestVersionClockObserves(t *testing.T) {
	s, _ := startControlet(t, topology.Mode{Topology: topology.MS, Consistency: topology.Eventual})
	base := s.clock.Load()
	s.observeVersion(base + 1000)
	if got := s.nextVersion(); got != base+1001 {
		t.Fatalf("nextVersion=%d, want %d", got, base+1001)
	}
	// Observing a lower version must not move the clock backwards.
	s.observeVersion(base)
	if got := s.nextVersion(); got <= base+1001 {
		t.Fatalf("clock went backwards: %d", got)
	}
}

func TestSetMapIgnoresStaleEpochs(t *testing.T) {
	s, _ := startControlet(t, topology.Mode{Topology: topology.MS, Consistency: topology.Strong})
	m5 := &topology.Map{Epoch: 5, Mode: topology.Mode{Topology: topology.MS, Consistency: topology.Strong}}
	m3 := &topology.Map{Epoch: 3, Mode: topology.Mode{Topology: topology.AA, Consistency: topology.Eventual}}
	s.SetMap(m5)
	s.SetMap(m3)
	if got := s.Map().Epoch; got != 5 {
		t.Fatalf("stale map installed: epoch %d", got)
	}
}

func TestRoleNames(t *testing.T) {
	s, _ := startControlet(t, topology.Mode{Topology: topology.MS, Consistency: topology.Strong})
	m := &topology.Map{
		Epoch: 1,
		Mode:  topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards: []topology.Shard{{
			ID: "ut-shard",
			Replicas: []topology.Node{
				{ID: "other-head"}, {ID: "ut-node"}, {ID: "other-tail"},
			},
		}},
	}
	s.SetMap(m)
	shard, pos := s.myShard(s.Map())
	if shard.ID != "ut-shard" || pos != 1 {
		t.Fatalf("myShard = (%s,%d)", shard.ID, pos)
	}
	if role := s.roleName(s.Map(), pos); role != "mid" {
		t.Fatalf("role=%s", role)
	}
}

// coordDials counts the connections established to one address.
type coordDials struct {
	transport.Network
	addr  string
	dials atomic.Int64
}

func (n *coordDials) Dial(addr string) (transport.Conn, error) {
	conn, err := n.Network.Dial(addr)
	if err == nil && addr == n.addr {
		n.dials.Add(1)
	}
	return conn, err
}

// TestHeartbeatSurvivesCoordinatorRestart: the heartbeat loop has one
// coordinator client for its lifetime — the one the controlet booted with,
// or the one it dialed on a tick because no coordinator was there at boot —
// and that client finds a coordinator that came back on the same address:
// one connection to begin with, one more after the restart, heartbeats
// flowing again.
func TestHeartbeatSurvivesCoordinatorRestart(t *testing.T) {
	for name, upAtBoot := range map[string]bool{"coordinator up at boot": true, "coordinator down at boot": false} {
		t.Run(name, func(t *testing.T) {
			inproc, _ := transport.Lookup("inproc")
			addr := fmt.Sprintf("controlet-test-coordinator-restart-%v", upAtBoot)
			serve := func() *coordinator.Server {
				srv, err := coordinator.Serve(coordinator.Config{Network: inproc, Addr: addr, DisableFailover: true, Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				return srv
			}
			var srv *coordinator.Server
			defer func() {
				if srv != nil {
					srv.Close()
				}
			}()
			if upAtBoot {
				srv = serve()
			}
			net := &coordDials{Network: inproc, addr: addr}
			s, err := Serve(Config{
				NodeID: "n0", ShardID: "shard-0", Network: net, Codec: wire.BinaryCodec{},
				Mode:              topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
				DataletAddr:       startDatalet(t, "d0", nil).Addr(),
				CoordinatorAddr:   addr,
				HeartbeatInterval: 5 * time.Millisecond,
				Logf:              t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if !upAtBoot {
				srv = serve()
			}
			waitBeatAfter := func(mark int64, what string) {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for s.lastBeat.Load() <= mark {
					if time.Now().After(deadline) {
						t.Fatalf("no heartbeat acknowledged %s", what)
					}
					time.Sleep(time.Millisecond)
				}
			}
			waitBeatAfter(clock.Mono(), "before the restart")
			srv.Close()
			srv = serve()
			waitBeatAfter(clock.Mono(), "after the restart")
			if d := net.dials.Load(); d != 2 {
				t.Fatalf("%d connections to the coordinator, want 2 (first contact, restart)", d)
			}
		})
	}
}

// TestFenceClockStartsAtSend: a controlet's self-fence clock runs from the
// moment a heartbeat left, never later than the coordinator's stamp of its
// arrival, however slowly the reply comes back; and a heartbeat reporting a
// failed datalet, which the coordinator does not count, does not reset it.
// Stamped at the reply, an isolated head would fence one reply-transit
// after the coordinator may have promoted its replacement.
func TestFenceClockStartsAtSend(t *testing.T) {
	inproc, _ := transport.Lookup("inproc")
	fab := faultnet.New(inproc, 1)
	coord, err := coordinator.Serve(coordinator.Config{
		Network: fab.Host("coord"), Addr: "controlet-test-fence-clock", DisableFailover: true, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// Every reply crawls back to the controlet.
	fab.SetLink("coord", "n0", faultnet.Rule{Delay: 100 * time.Millisecond})
	d, err := datalet.Serve(datalet.Config{
		Name: "d0", Network: fab.Host("n0"), Codec: wire.BinaryCodec{},
		NewEngine: func(string) (store.Engine, error) { return ht.New(), nil },
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s, err := Serve(Config{
		NodeID: "n0", ShardID: "shard-0", Network: fab.Host("n0"), Codec: wire.BinaryCodec{},
		Mode:              topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		DataletAddr:       d.Addr(),
		CoordinatorAddr:   coord.Addr(),
		HeartbeatInterval: 300 * time.Millisecond,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	beat := s.lastBeat.Load()
	for i := 0; i < 3; i++ {
		prev := beat
		eventually(t, "an acknowledged heartbeat", func() bool {
			beat = s.lastBeat.Load()
			return beat != prev
		})
		seen, ok := coord.LastSeen("n0")
		if !ok || beat > clock.Of(seen) {
			t.Fatalf("heartbeat %d: the fence clock starts %v after the coordinator's (seen %v)",
				i, time.Duration(beat-clock.Of(seen)), ok)
		}
	}

	// The datalet dies: heartbeats go on, reporting it, and neither clock
	// moves.
	d.Close()
	seen, _ := coord.LastSeen("n0")
	sent := ctlHeartbeats.Value()
	eventually(t, "three more heartbeats", func() bool { return ctlHeartbeats.Value() >= sent+3 })
	if got := s.lastBeat.Load(); got != beat {
		t.Fatalf("a heartbeat reporting a failed datalet moved the fence clock by %v", time.Duration(got-beat))
	}
	if now, _ := coord.LastSeen("n0"); !now.Equal(seen) {
		t.Fatalf("the coordinator refreshed a node whose datalet failed")
	}
}
