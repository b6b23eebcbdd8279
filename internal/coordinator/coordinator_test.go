package coordinator

import (
	"fmt"
	"testing"
	"time"

	"bespokv/internal/topology"
	"bespokv/internal/transport"
)

func newCoord(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Network = net
	cfg.Logf = t.Logf
	s, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := DialCoordinator(net, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func sampleMap(nShards, nReplicas int) *topology.Map {
	m := &topology.Map{
		Mode:        topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Partitioner: topology.HashPartitioner,
	}
	for s := 0; s < nShards; s++ {
		shard := topology.Shard{ID: fmt.Sprintf("shard-%d", s)}
		for r := 0; r < nReplicas; r++ {
			shard.Replicas = append(shard.Replicas, topology.Node{
				ID:            fmt.Sprintf("s%d-r%d", s, r),
				ControletAddr: fmt.Sprintf("c%d-%d", s, r),
				DataletAddr:   fmt.Sprintf("d%d-%d", s, r),
			})
		}
		m.Shards = append(m.Shards, shard)
	}
	return m
}

func TestSetAndGetMap(t *testing.T) {
	_, c := newCoord(t, Config{DisableFailover: true})
	epoch, err := c.SetMap(sampleMap(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("first epoch=%d", epoch)
	}
	m, err := c.GetMap()
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 || len(m.Shards) != 2 || len(m.Shards[0].Replicas) != 3 {
		t.Fatalf("got map %+v", m)
	}
	// Re-set bumps the epoch.
	epoch, err = c.SetMap(sampleMap(2, 3))
	if err != nil || epoch != 2 {
		t.Fatalf("epoch=%d err=%v", epoch, err)
	}
}

func TestGetMapBeforeSet(t *testing.T) {
	_, c := newCoord(t, Config{DisableFailover: true})
	if _, err := c.GetMap(); err == nil {
		t.Fatal("GetMap before SetMap must error")
	}
}

func TestSetMapRejectsInvalid(t *testing.T) {
	_, c := newCoord(t, Config{DisableFailover: true})
	if _, err := c.SetMap(&topology.Map{}); err == nil {
		t.Fatal("empty map must be rejected")
	}
	bad := sampleMap(1, 1)
	bad.Mode.Topology = "p2p-mesh"
	if _, err := c.SetMap(bad); err == nil {
		t.Fatal("invalid mode must be rejected")
	}
}

func TestWatchMapWakesOnChange(t *testing.T) {
	s, c := newCoord(t, Config{DisableFailover: true})
	if _, err := c.SetMap(sampleMap(1, 3)); err != nil {
		t.Fatal(err)
	}
	done := make(chan *topology.Map, 1)
	go func() {
		m, err := c.WatchMap(1, 5*time.Second)
		if err != nil {
			done <- nil
			return
		}
		done <- m
	}()
	time.Sleep(30 * time.Millisecond)
	net, _ := transport.Lookup("inproc")
	c2, err := DialCoordinator(net, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.SetMap(sampleMap(1, 3)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-done:
		if m == nil || m.Epoch != 2 {
			t.Fatalf("watch returned %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch never woke")
	}
}

func TestWatchMapTimesOutWithCurrent(t *testing.T) {
	_, c := newCoord(t, Config{DisableFailover: true})
	if _, err := c.SetMap(sampleMap(1, 3)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	m, err := c.WatchMap(1, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 {
		t.Fatalf("timeout watch returned epoch %d", m.Epoch)
	}
	if time.Since(start) < 80*time.Millisecond {
		t.Fatal("watch returned before timeout without a change")
	}
}

func TestHeartbeatReturnsEpoch(t *testing.T) {
	_, c := newCoord(t, Config{DisableFailover: true})
	c.SetMap(sampleMap(1, 3))
	epoch, err := c.Heartbeat("s0-r0", true)
	if err != nil || epoch != 1 {
		t.Fatalf("epoch=%d err=%v", epoch, err)
	}
}

func TestLeaderElect(t *testing.T) {
	_, c := newCoord(t, Config{DisableFailover: true})
	c.SetMap(sampleMap(1, 3))
	n, err := c.LeaderElect("shard-0", "s0-r0")
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != "s0-r1" {
		t.Fatalf("elected %s, want s0-r1", n.ID)
	}
	m, _ := c.GetMap()
	if m.Shards[0].Replicas[0].ID != "s0-r1" {
		t.Fatalf("map head is %s", m.Shards[0].Replicas[0].ID)
	}
	if m.Epoch != 2 {
		t.Fatalf("epoch=%d after election", m.Epoch)
	}
	if _, err := c.LeaderElect("no-such-shard", ""); err == nil {
		t.Fatal("unknown shard must error")
	}
}

func TestFailNodeRepairsChain(t *testing.T) {
	srv, c := newCoord(t, Config{DisableFailover: true})
	c.SetMap(sampleMap(2, 3))
	if err := srv.FailNode("s0-r1"); err != nil { // mid node
		t.Fatal(err)
	}
	m, _ := c.GetMap()
	reps := m.Shards[0].Replicas
	if len(reps) != 2 || reps[0].ID != "s0-r0" || reps[1].ID != "s0-r2" {
		t.Fatalf("chain after mid failure: %+v", reps)
	}
	if len(m.Shards[1].Replicas) != 3 {
		t.Fatal("other shard touched")
	}
	// Head failure promotes the next node.
	if err := srv.FailNode("s0-r0"); err != nil {
		t.Fatal(err)
	}
	m, _ = c.GetMap()
	if m.Shards[0].Replicas[0].ID != "s0-r2" {
		t.Fatalf("head after failure: %+v", m.Shards[0].Replicas)
	}
	// Last replica cannot be failed.
	if err := srv.FailNode("s0-r2"); err == nil {
		t.Fatal("failing the last replica must error")
	}
}

func TestHeartbeatTimeoutTriggersFailover(t *testing.T) {
	_, c := newCoord(t, Config{HeartbeatTimeout: 150 * time.Millisecond})
	if _, err := c.SetMap(sampleMap(1, 3)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	// Keep r0 and r2 alive; let r1 go silent.
	go func() {
		ticker := time.NewTicker(30 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				c.Heartbeat("s0-r0", true)
				c.Heartbeat("s0-r2", true)
			}
		}
	}()
	deadline := time.After(3 * time.Second)
	for {
		m, err := c.GetMap()
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Shards[0].Replicas) == 2 {
			if m.Shards[0].Replicas[0].ID != "s0-r0" || m.Shards[0].Replicas[1].ID != "s0-r2" {
				t.Fatalf("wrong survivor set: %+v", m.Shards[0].Replicas)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatal("failover never happened")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestTransitionLifecycle(t *testing.T) {
	_, c := newCoord(t, Config{DisableFailover: true})
	c.SetMap(sampleMap(2, 3))
	newShards := sampleMap(2, 3).Shards
	for si := range newShards {
		for ri := range newShards[si].Replicas {
			newShards[si].Replicas[ri].ID = fmt.Sprintf("new-s%d-r%d", si, ri)
			newShards[si].Replicas[ri].ControletAddr = fmt.Sprintf("nc%d-%d", si, ri)
		}
	}
	to := topology.Mode{Topology: topology.AA, Consistency: topology.Eventual}
	if _, err := c.BeginTransition(to, newShards); err != nil {
		t.Fatal(err)
	}
	// No control addresses → drains are no-ops → auto-complete.
	deadline := time.After(3 * time.Second)
	for {
		m, err := c.GetMap()
		if err != nil {
			t.Fatal(err)
		}
		if m.Transition == nil && m.Mode == to {
			if m.Shards[0].Replicas[0].ID != "new-s0-r0" {
				t.Fatalf("new shards not installed: %+v", m.Shards[0].Replicas[0])
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("transition never completed: %+v", m)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestTransitionRejectsConcurrent(t *testing.T) {
	s, c := newCoord(t, Config{DisableFailover: true})
	c.SetMap(sampleMap(1, 3))
	to := topology.Mode{Topology: topology.MS, Consistency: topology.Eventual}
	// Install a transition directly so it stays in flight (no auto
	// completion because we bypass the drain goroutine).
	s.mu.Lock()
	m := s.cur.Clone()
	m.Transition = &topology.Transition{To: to, NewShards: m.Shards}
	m.Epoch++
	s.cur = m
	s.mu.Unlock()
	if _, err := c.BeginTransition(to, sampleMap(1, 3).Shards); err == nil {
		t.Fatal("concurrent transition must be rejected")
	}
	// Manual completion works.
	if _, err := c.CompleteTransition(); err != nil {
		t.Fatal(err)
	}
	mm, _ := c.GetMap()
	if mm.Transition != nil || mm.Mode != to {
		t.Fatalf("transition not completed: %+v", mm)
	}
}

func TestRegisterStandbyValidation(t *testing.T) {
	_, c := newCoord(t, Config{DisableFailover: true})
	if err := c.RegisterStandby(topology.Node{}); err == nil {
		t.Fatal("empty standby must be rejected")
	}
	err := c.RegisterStandby(topology.Node{ID: "sb", ControletAddr: "x", DataletAddr: "y"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFailoverPromotesStandby(t *testing.T) {
	s, c := newCoord(t, Config{DisableFailover: true})
	c.SetMap(sampleMap(1, 3))
	// Standby without a control address: recovery is skipped, the node
	// joins directly.
	if err := c.RegisterStandby(topology.Node{ID: "sb-1", ControletAddr: "sbc", DataletAddr: "sbd"}); err != nil {
		t.Fatal(err)
	}
	if err := s.FailNode("s0-r2"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(3 * time.Second)
	for {
		m, _ := c.GetMap()
		reps := m.Shards[0].Replicas
		if len(reps) == 3 && reps[2].ID == "sb-1" {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("standby never joined: %+v", reps)
		case <-time.After(10 * time.Millisecond):
		}
	}
}
