package coordinator

import (
	"testing"
	"time"

	"bespokv/internal/topology"
)

// TestFailoverDeferredDuringTransition verifies the failover/transition
// interlock: while a transition is in flight the failure detector and
// FailNode must not mutate the shard lists (a node removed from the old
// shards mid-switch would leave the new shards inconsistent); once the
// transition completes, failover proceeds.
func TestFailoverDeferredDuringTransition(t *testing.T) {
	s, c := newCoord(t, Config{HeartbeatTimeout: 100 * time.Millisecond})
	if _, err := c.SetMap(sampleMap(1, 3)); err != nil {
		t.Fatal(err)
	}
	// Install a transition directly so it stays in flight — once the group
	// of one has taken the lead: a take-over that ran after the install
	// would find the transition and resume it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		took := s.tookOver != 0
		s.mu.Unlock()
		if took {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the coordinator never took the lead")
		}
	}
	to := topology.Mode{Topology: topology.AA, Consistency: topology.Eventual}
	s.mu.Lock()
	m := s.cur.Clone()
	m.Transition = &topology.Transition{To: to, NewShards: m.Shards}
	m.Epoch++
	s.cur = m
	s.mu.Unlock()

	if err := s.FailNode("s0-r1"); err == nil {
		t.Fatal("FailNode during transition must be rejected")
	}
	// No heartbeats flow, yet the detector must not shrink the shard.
	time.Sleep(300 * time.Millisecond)
	cur, err := c.GetMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Shards[0].Replicas) != 3 {
		t.Fatalf("detector failed nodes mid-transition: %d replicas", len(cur.Shards[0].Replicas))
	}

	// Complete the transition; failover works again. A transition's
	// new-mode nodes heartbeat while it runs; here they are the silent old
	// ones, so they report in first, or the detector would fail them all
	// the moment it resumes, racing the FailNode below.
	for _, id := range []string{"s0-r0", "s0-r1", "s0-r2"} {
		if _, err := c.Heartbeat(id, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CompleteTransition(); err != nil {
		t.Fatal(err)
	}
	if err := s.FailNode("s0-r1"); err != nil {
		t.Fatalf("FailNode after transition: %v", err)
	}
	cur, _ = c.GetMap()
	if len(cur.Shards[0].Replicas) != 2 {
		t.Fatalf("failover after transition did not apply: %d replicas", len(cur.Shards[0].Replicas))
	}
}
