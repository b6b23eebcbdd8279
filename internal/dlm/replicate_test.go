package dlm

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/rsm"
	"bespokv/internal/store/wal"
	"bespokv/internal/transport"
)

var dlmAddrSeq atomic.Uint64

// dlmGroup is a replicated lease-table test harness: n DLM members over
// inproc, each with its own MemFS-backed replicated log.
type dlmGroup struct {
	t     *testing.T
	net   transport.Network
	ids   []string
	peers map[string]string
	fss   map[string]*wal.MemFS
	srvs  map[string]*Server
	ttl   time.Duration
	sweep time.Duration
}

func newDLMGroup(t *testing.T, n int, ttl, sweep time.Duration) *dlmGroup {
	t.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	seq := dlmAddrSeq.Add(1)
	g := &dlmGroup{
		t:     t,
		net:   net,
		peers: map[string]string{},
		fss:   map[string]*wal.MemFS{},
		srvs:  map[string]*Server{},
		ttl:   ttl,
		sweep: sweep,
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("dlm-%d", i)
		g.ids = append(g.ids, id)
		g.peers[id] = fmt.Sprintf("dlmrep-%d-%d", seq, i)
		g.fss[id] = wal.NewMemFS()
	}
	for _, id := range g.ids {
		g.start(id)
	}
	t.Cleanup(func() {
		for _, s := range g.srvs {
			s.Close()
		}
	})
	return g
}

func (g *dlmGroup) start(id string) {
	g.t.Helper()
	s, err := Serve(Config{
		Network:       g.net,
		Addr:          g.peers[id],
		DefaultTTL:    g.ttl,
		SweepInterval: g.sweep,
		Replication: &rsm.GroupConfig{
			ID:              id,
			Peers:           g.peers,
			Dir:             "dlm",
			FS:              g.fss[id],
			ElectionTimeout: 60 * time.Millisecond,
		},
		Logf: g.t.Logf,
	})
	if err != nil {
		g.t.Fatalf("start %s: %v", id, err)
	}
	g.srvs[id] = s
}

func (g *dlmGroup) stop(id string) {
	g.t.Helper()
	if s := g.srvs[id]; s != nil {
		s.Close()
		delete(g.srvs, id)
	}
}

func (g *dlmGroup) waitLeader() string {
	g.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for id, s := range g.srvs {
			if s.IsLeader() {
				return id
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	g.t.Fatal("no dlm leader elected")
	return ""
}

// client dials the whole member list (comma-joined) as one rotating client.
func (g *dlmGroup) client(owner string) *Client {
	g.t.Helper()
	var addrs []string
	for _, id := range g.ids {
		addrs = append(addrs, g.peers[id])
	}
	c, err := DialClient(g.net, strings.Join(addrs, ","), owner)
	if err != nil {
		g.t.Fatal(err)
	}
	g.t.Cleanup(func() { c.Close() })
	return c
}

// lockRetry keeps calling Lock through leadership churn until the call
// reaches a leader (granted or cleanly refused with ErrLockHeld).
func lockRetry(t *testing.T, c *Client, key string, mode Mode, ttl, wait time.Duration) (uint64, error) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tok, err := c.Lock(key, mode, ttl, wait)
		if err == nil || strings.Contains(err.Error(), "held") || time.Now().After(deadline) {
			return tok, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicatedNoDoubleGrant is the drive-by regression: a write lease
// granted by the old leader must survive killing that leader. The lease
// clock is replicated state that only the leader advances, so it pauses
// across the failover — the new leader still sees the lease live and must
// refuse a conflicting grant, no matter how its wall clock or process
// uptime differ from the old leader's.
func TestReplicatedNoDoubleGrant(t *testing.T) {
	g := newDLMGroup(t, 3, time.Second, 25*time.Millisecond)
	lead := g.waitLeader()
	a, b := g.client("a"), g.client("b")

	tok, err := a.Lock("k", Write, time.Second, 0)
	if err != nil || tok == 0 {
		t.Fatalf("initial grant: tok=%d err=%v", tok, err)
	}
	g.stop(lead)
	next := g.waitLeader()
	if next == lead {
		t.Fatalf("dead member %s still leads", lead)
	}

	// Immediately after the failover the lease must still be held: the
	// replicated clock barely moved while the group had no leader.
	if _, err := lockRetry(t, b, "k", Write, time.Second, 0); err == nil {
		t.Fatal("conflicting lock granted right after leader failover: lease double-granted")
	} else if !strings.Contains(err.Error(), "held") {
		t.Fatalf("post-failover lock: %v", err)
	}

	// Once the new leader's sweeps advance the clock past the TTL, the
	// lease expires and b wins — with a larger fencing token, because the
	// token counter is replicated too.
	tok2, err := lockRetry(t, b, "k", Write, time.Second, 5*time.Second)
	if err != nil {
		t.Fatalf("lease never expired under new leader: %v", err)
	}
	if tok2 <= tok {
		t.Fatalf("fencing tokens regressed across failover: %d then %d", tok, tok2)
	}
}

// TestReplicatedFollowerRedirect pins the redirect contract: followers
// refuse to grant, and the multi-address client rotates onto the leader
// without the caller noticing.
func TestReplicatedFollowerRedirect(t *testing.T) {
	g := newDLMGroup(t, 3, time.Second, 25*time.Millisecond)
	lead := g.waitLeader()
	for _, id := range g.ids {
		if id == lead {
			continue
		}
		if _, err := g.srvs[id].submit(opSweep, &lockCall{}); err == nil {
			t.Fatalf("follower %s would grant leases", id)
		} else if !rsm.IsNotLeader(err) {
			t.Fatalf("follower %s returns %v, want NotLeader", id, err)
		}
		// A client dialed at just this follower still acquires: the
		// NotLeader hint re-targets it.
		c, err := DialClient(g.net, g.peers[id], "solo-"+id)
		if err != nil {
			t.Fatal(err)
		}
		if tok, err := c.Lock("redir-"+id, Write, time.Second, 0); err != nil || tok == 0 {
			t.Fatalf("lock via follower %s: tok=%d err=%v", id, tok, err)
		}
		c.Close()
	}
}

// TestReplicatedRestartRecovers restarts every member from its durable
// log: a lease granted before the restart is still held after it (the
// clock paused for the whole outage, stretching the lease).
func TestReplicatedRestartRecovers(t *testing.T) {
	g := newDLMGroup(t, 3, time.Second, 25*time.Millisecond)
	g.waitLeader()
	a := g.client("a")
	if tok, err := a.Lock("k", Write, 10*time.Second, 0); err != nil || tok == 0 {
		t.Fatalf("grant: tok=%d err=%v", tok, err)
	}
	for _, id := range g.ids {
		g.stop(id)
	}
	for _, id := range g.ids {
		g.start(id)
	}
	g.waitLeader()
	b := g.client("b")
	if _, err := lockRetry(t, b, "k", Write, time.Second, 0); err == nil {
		t.Fatal("lease lost over full restart")
	} else if !strings.Contains(err.Error(), "held") {
		t.Fatalf("post-restart lock: %v", err)
	}
	// The original owner can still release it.
	deadline := time.Now().Add(5 * time.Second)
	var err error
	for time.Now().Before(deadline) {
		if err = a.Unlock("k", Write); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("unlock after restart: %v", err)
	}
	if tok, err := lockRetry(t, b, "k", Write, time.Second, 2*time.Second); err != nil || tok == 0 {
		t.Fatalf("lock after release: tok=%d err=%v", tok, err)
	}
}

// TestLockTableClock pins the monotonic-clock semantics the replication
// design rests on: the clock never regresses, single advances are what
// expire leases, and expiry compares clock readings only.
func TestLockTableClock(t *testing.T) {
	tbl := newLockTable()
	if tok := tbl.tryGrant([]byte("k"), "a", Write, 100); tok == 0 {
		t.Fatal("grant refused on empty table")
	}
	tbl.advance(-50) // regression attempt: ignored
	if tbl.Clock != 0 {
		t.Fatalf("clock regressed to %d", tbl.Clock)
	}
	tbl.advance(100) // exactly at expiry: lease still valid (now == exp)
	if tok := tbl.tryGrant([]byte("k"), "b", Write, 100); tok != 0 {
		t.Fatal("conflicting grant at exact expiry instant")
	}
	tbl.advance(1) // past expiry
	if tok := tbl.tryGrant([]byte("k"), "b", Write, 100); tok == 0 {
		t.Fatal("grant refused after lease expiry")
	}
	if tbl.NextToken != 2 {
		t.Fatalf("fencing tokens not monotonic: %d", tbl.NextToken)
	}
}

// TestTakeDeltaCap pins the failover-safety cap: one stamped delta can
// never advance the lease clock by more than 2×SweepInterval, so a member
// whose monotonic baseline is stale (it just took over leadership, or the
// process was suspended) cannot mass-expire leases in one step.
func TestTakeDeltaCap(t *testing.T) {
	s := &Server{cfg: Config{SweepInterval: 10 * time.Millisecond}, base: time.Now()}
	s.lastMono.Store(-int64(time.Hour)) // simulate an hour-stale baseline
	if d := s.takeDelta(); d > 2*int64(10*time.Millisecond) {
		t.Fatalf("delta %d exceeds cap after stale baseline", d)
	}
	// The baseline is consumed: the next delta is small again.
	if d := s.takeDelta(); d > 2*int64(10*time.Millisecond) {
		t.Fatalf("second delta %d exceeds cap", d)
	}
}
