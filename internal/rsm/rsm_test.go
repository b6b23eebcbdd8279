package rsm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/faultnet"
	"bespokv/internal/rpc"
	"bespokv/internal/store/faultfs"
	"bespokv/internal/transport"
)

// testSM is an order-sensitive list machine: any divergence in apply order
// or duplication across members shows up as unequal lists.
type testSM struct {
	mu   sync.Mutex
	vals []string
}

func (s *testSM) Apply(index uint64, cmd []byte) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals = append(s.vals, string(cmd))
	return len(s.vals)
}

func (s *testSM) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return []byte(strings.Join(s.vals, "\n"))
}

func (s *testSM) Restore(data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(data) == 0 {
		s.vals = nil
		return
	}
	s.vals = strings.Split(string(data), "\n")
}

func (s *testSM) list() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.vals...)
}

var rsmAddrSeq atomic.Uint64

type tnode struct {
	id   string
	mux  *rpc.Server
	node *Node
	sm   *testSM
	fs   *faultfs.FS
}

type tgroup struct {
	t     *testing.T
	et    time.Duration
	snapN uint64
	fab   *faultnet.Fabric
	peers map[string]string

	mu    sync.Mutex
	nodes map[string]*tnode
}

func newGroup(t *testing.T, members int, fab *faultnet.Fabric) *tgroup {
	t.Helper()
	g := &tgroup{
		t:     t,
		et:    80 * time.Millisecond,
		snapN: 1 << 20,
		fab:   fab,
		peers: map[string]string{},
		nodes: map[string]*tnode{},
	}
	base := rsmAddrSeq.Add(1)
	for i := 0; i < members; i++ {
		id := fmt.Sprintf("m%d", i)
		g.peers[id] = fmt.Sprintf("rsm-%d-%s", base, id)
	}
	for id := range g.peers {
		g.start(id, faultfs.New(int64(base)+int64(len(id))))
	}
	t.Cleanup(func() {
		g.mu.Lock()
		nodes := make([]*tnode, 0, len(g.nodes))
		for _, tn := range g.nodes {
			nodes = append(nodes, tn)
		}
		g.nodes = map[string]*tnode{}
		g.mu.Unlock()
		for _, tn := range nodes {
			tn.node.Close()
			tn.mux.Close()
		}
	})
	return g
}

func (g *tgroup) netFor(id string) transport.Network {
	if g.fab != nil {
		return g.fab.Host(id)
	}
	return transport.Inproc{}
}

func (g *tgroup) start(id string, fs *faultfs.FS) *tnode {
	g.t.Helper()
	netw := g.netFor(id)
	mux := rpc.NewServer()
	mux.Name = "rsm-" + id
	if _, err := mux.Serve(netw, g.peers[id]); err != nil {
		g.t.Fatalf("serve %s: %v", id, err)
	}
	sm := &testSM{}
	node, err := Start(Config{
		GroupConfig: GroupConfig{
			ID:              id,
			Peers:           g.peers,
			Dir:             "rsm",
			FS:              fs,
			ElectionTimeout: g.et,
			Heartbeat:       g.et / 5,
			SnapshotEvery:   g.snapN,
		},
		Mux:     mux,
		Network: netw,
		SM:      sm,
	})
	if err != nil {
		mux.Close()
		g.t.Fatalf("start %s: %v", id, err)
	}
	tn := &tnode{id: id, mux: mux, node: node, sm: sm, fs: fs}
	g.mu.Lock()
	g.nodes[id] = tn
	g.mu.Unlock()
	return tn
}

// stop kills a member: server torn down first (in-flight exchanges fail
// like a process kill), then the node releases its storage.
func (g *tgroup) stop(id string) *tnode {
	g.mu.Lock()
	tn := g.nodes[id]
	delete(g.nodes, id)
	g.mu.Unlock()
	if tn == nil {
		g.t.Fatalf("stop %s: not running", id)
	}
	tn.mux.Close()
	tn.node.Close()
	return tn
}

func (g *tgroup) live() []*tnode {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*tnode, 0, len(g.nodes))
	for _, tn := range g.nodes {
		out = append(out, tn)
	}
	return out
}

// waitLeader polls until some live member leads and its leadership is
// known to itself, returning it.
func (g *tgroup) waitLeader(timeout time.Duration) *tnode {
	g.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, tn := range g.live() {
			if tn.node.IsLeader() {
				return tn
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	g.t.Fatalf("no leader within %v", timeout)
	return nil
}

// waitVals polls until every live member's state machine holds exactly want.
func (g *tgroup) waitVals(want []string, timeout time.Duration) {
	g.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, tn := range g.live() {
			got := tn.sm.list()
			if len(got) != len(want) {
				ok = false
				break
			}
			for i := range want {
				if got[i] != want[i] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, tn := range g.live() {
		g.t.Logf("%s: %v", tn.id, tn.sm.list())
	}
	g.t.Fatalf("members did not converge on %d values within %v", len(want), timeout)
}

func (g *tgroup) propose(tn *tnode, cmd string) any {
	g.t.Helper()
	res, err := tn.node.Propose([]byte(cmd), 2*time.Second)
	if err != nil {
		g.t.Fatalf("propose %q on %s: %v", cmd, tn.id, err)
	}
	return res
}

func TestElectionAndPropose(t *testing.T) {
	g := newGroup(t, 3, nil)
	ld := g.waitLeader(2 * time.Second)
	var want []string
	for i := 0; i < 10; i++ {
		cmd := fmt.Sprintf("cmd-%d", i)
		res := g.propose(ld, cmd)
		if got, ok := res.(int); !ok || got != i+1 {
			t.Fatalf("propose %d: result = %v, want %d", i, res, i+1)
		}
		want = append(want, cmd)
	}
	g.waitVals(want, 2*time.Second)

	st := ld.node.Status()
	if st.State != "leader" || st.CommitIndex == 0 || st.AppliedIndex != st.CommitIndex {
		t.Fatalf("leader status off: %+v", st)
	}
	if len(st.Members) != 3 {
		t.Fatalf("status members = %d, want 3", len(st.Members))
	}
}

// TestSingleMemberGroup: a group of one with a Dir logs what it applies,
// from a copy — the caller's buffer is its own again once Submit returns —
// and a restart applies it all again before leading.
func TestSingleMemberGroup(t *testing.T) {
	g := newGroup(t, 1, nil)
	ld := g.waitLeader(2 * time.Second)
	g.propose(ld, "solo")
	buf := []byte("kept")
	if _, err := ld.node.Submit(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXX")
	g.waitVals([]string{"solo", "kept"}, time.Second)
	g.stop(ld.id)
	again := g.start(ld.id, ld.fs)
	if !again.node.IsLeader() {
		t.Fatal("restarted group of one does not lead")
	}
	g.waitVals([]string{"solo", "kept"}, time.Second)
	g.propose(again, "after")
	g.waitVals([]string{"solo", "kept", "after"}, time.Second)
}

// TestGroupOfOneAppliesInSubmit: a group of one with no Dir leads as it
// starts, Submit hands back its command applied, and nothing of it is kept.
func TestGroupOfOneAppliesInSubmit(t *testing.T) {
	mux := rpc.NewServer()
	sm := &testSM{}
	node, err := StartGroup(nil, "solo:1", mux, nil, sm, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if !node.IsLeader() {
		t.Fatal("a group of one must lead as it starts")
	}
	for i := 1; i <= 3; i++ {
		p, err := node.Submit([]byte(fmt.Sprint(i)))
		if err != nil || !p.Applied() {
			t.Fatalf("submit %d: applied=%v err=%v", i, p.Applied(), err)
		}
		if res, err := p.Wait(0); err != nil || res != i {
			t.Fatalf("submit %d: result %v, %v", i, res, err)
		}
	}
	st := node.Status()
	if st.CommitIndex != st.LastIndex || st.AppliedIndex != st.LastIndex || st.SnapshotIndex != st.LastIndex {
		t.Fatalf("a volatile group of one keeps entries: %+v", st)
	}
	if len(node.st.entries) != 0 || node.st.snapData != nil || node.st.log != nil {
		t.Fatalf("kept %d entries, %d checkpoint bytes", len(node.st.entries), len(node.st.snapData))
	}
}

func TestNotLeaderRedirect(t *testing.T) {
	g := newGroup(t, 3, nil)
	ld := g.waitLeader(2 * time.Second)
	g.propose(ld, "x") // commits leadership knowledge everywhere

	deadline := time.Now().Add(2 * time.Second)
	for {
		var follower *tnode
		for _, tn := range g.live() {
			if tn.id != ld.id {
				follower = tn
				break
			}
		}
		_, err := follower.node.Propose([]byte("y"), time.Second)
		if err == nil {
			t.Fatalf("follower %s accepted a proposal", follower.id)
		}
		if !IsNotLeader(err) {
			t.Fatalf("follower error = %v, want not-leader redirect", err)
		}
		if LeaderHint(err) == g.peers[ld.id] {
			break // hint points at the live leader
		}
		if time.Now().After(deadline) {
			t.Fatalf("redirect hint never converged: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLeaderKillReelection(t *testing.T) {
	g := newGroup(t, 3, nil)
	ld := g.waitLeader(2 * time.Second)
	var want []string
	for i := 0; i < 5; i++ {
		cmd := fmt.Sprintf("pre-%d", i)
		g.propose(ld, cmd)
		want = append(want, cmd)
	}

	start := time.Now()
	g.stop(ld.id)
	next := g.waitLeader(2 * time.Second)
	if next.id == ld.id {
		t.Fatalf("dead leader %s still leads", ld.id)
	}
	if elapsed := time.Since(start); elapsed > 10*g.et {
		t.Fatalf("re-election took %v, want < %v", elapsed, 10*g.et)
	}
	for i := 0; i < 5; i++ {
		cmd := fmt.Sprintf("post-%d", i)
		g.propose(next, cmd)
		want = append(want, cmd)
	}
	// Every pre-kill acked write must survive on the new leader, in order.
	g.waitVals(want, 2*time.Second)
}

func TestPartitionedLeaderStepsDown(t *testing.T) {
	fab := faultnet.New(transport.Inproc{}, 42)
	g := newGroup(t, 3, fab)
	ld := g.waitLeader(2 * time.Second)
	var want []string
	for i := 0; i < 3; i++ {
		cmd := fmt.Sprintf("pre-%d", i)
		g.propose(ld, cmd)
		want = append(want, cmd)
	}

	fab.Isolate(ld.id)

	// Check-quorum: the isolated leader must abdicate within a few
	// election timeouts rather than keep answering as a stale leader.
	deadline := time.Now().Add(8 * g.et)
	for ld.node.IsLeader() {
		if time.Now().After(deadline) {
			t.Fatalf("isolated leader %s never stepped down", ld.id)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The majority side elects a replacement and keeps committing.
	var next *tnode
	electDeadline := time.Now().Add(2 * time.Second)
	for next == nil {
		for _, tn := range g.live() {
			if tn.id != ld.id && tn.node.IsLeader() {
				next = tn
				break
			}
		}
		if time.Now().After(electDeadline) {
			t.Fatalf("no majority-side leader after isolation")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		cmd := fmt.Sprintf("during-%d", i)
		g.propose(next, cmd)
		want = append(want, cmd)
	}

	fab.Heal()
	// The healed member rejoins as a follower and converges.
	g.waitVals(want, 4*time.Second)
	if ld.node.IsLeader() && !next.node.IsLeader() {
		// A post-heal re-election is legal; what is not legal is two
		// leaders in the same term.
		a, b := ld.node.Status(), next.node.Status()
		if a.Term == b.Term && a.State == "leader" && b.State == "leader" {
			t.Fatalf("split brain: %s and %s both lead term %d", ld.id, next.id, a.Term)
		}
	}
	final := g.waitLeader(2 * time.Second)
	cmd := "post-heal"
	g.propose(final, cmd)
	g.waitVals(append(want, cmd), 2*time.Second)
}

func TestCrashRestartRecovery(t *testing.T) {
	g := newGroup(t, 3, nil)
	ld := g.waitLeader(2 * time.Second)
	var want []string
	for i := 0; i < 7; i++ {
		cmd := fmt.Sprintf("cmd-%d", i)
		g.propose(ld, cmd)
		want = append(want, cmd)
	}
	g.waitVals(want, 2*time.Second)

	// Crash all three: freeze first so the graceful Close adds nothing
	// beyond what an ack already made durable, then revert each disk to
	// its durable image.
	stopped := map[string]*tnode{}
	for _, tn := range g.live() {
		tn.fs.Freeze()
	}
	for _, tn := range g.live() {
		stopped[tn.id] = tn
	}
	for id, tn := range stopped {
		g.stop(id)
		tn.fs.Crash()
	}
	for id, tn := range stopped {
		g.start(id, tn.fs)
	}

	ld2 := g.waitLeader(4 * time.Second)
	// Zero acked-write loss across the full-cluster crash.
	g.waitVals(want, 4*time.Second)
	g.propose(ld2, "after-restart")
	g.waitVals(append(want, "after-restart"), 2*time.Second)
}

func TestSnapshotCatchUp(t *testing.T) {
	g := newGroup(t, 3, nil)
	g.snapN = 8 // applies only to members started after this point
	ld := g.waitLeader(2 * time.Second)

	// Find a follower to lag behind, kill it, then push the leader far
	// enough ahead that compaction discards the follower's tail.
	var lag *tnode
	for _, tn := range g.live() {
		if tn.id != ld.id {
			lag = tn
			break
		}
	}
	lagFS := g.stop(lag.id).fs

	// Restart remaining members' group state? No — just drive the leader.
	var want []string
	for i := 0; i < 40; i++ {
		cmd := fmt.Sprintf("cmd-%d", i)
		g.propose(ld, cmd)
		want = append(want, cmd)
	}
	// Force compaction on the leader by restarting it with a small
	// SnapshotEvery is intrusive; instead assert catch-up works with the
	// leader's live log, then separately exercise the snapshot path via
	// an explicitly compacted leader below.
	g.start(lag.id, lagFS)
	g.waitVals(want, 4*time.Second)
}

// TestInstallSnapshot drives the leader→follower checkpoint path directly:
// a small SnapshotEvery makes the leader compact past a dead follower's
// position, so the only way back is RSM.Snap.
func TestInstallSnapshot(t *testing.T) {
	g := newGroup(t, 3, nil)
	g.snapN = 8
	// Restart all members so the tiny SnapshotEvery applies everywhere.
	stopped := map[string]*tnode{}
	for _, tn := range g.live() {
		stopped[tn.id] = tn
	}
	for id, tn := range stopped {
		g.stop(id)
		g.start(id, tn.fs)
	}
	ld := g.waitLeader(2 * time.Second)

	var lag *tnode
	for _, tn := range g.live() {
		if tn.id != ld.id {
			lag = tn
			break
		}
	}
	lagFS := g.stop(lag.id).fs

	var want []string
	for i := 0; i < 40; i++ {
		cmd := fmt.Sprintf("cmd-%d", i)
		g.propose(ld, cmd)
		want = append(want, cmd)
	}
	if st := ld.node.Status(); st.SnapshotIndex == 0 {
		t.Fatalf("leader never compacted: %+v", st)
	}

	tn := g.start(lag.id, lagFS)
	g.waitVals(want, 4*time.Second)
	if st := tn.node.Status(); st.SnapshotIndex == 0 {
		t.Fatalf("lagging follower caught up without a snapshot install: %+v", st)
	}
}

// TestPreVoteBlocksDisruption pins the pre-vote guarantee: a member that
// cannot win an election (isolated, stale log) must not inflate its term
// while cut off, so on heal it rejoins as a follower instead of deposing a
// healthy leader with the term it banked. Without pre-vote this scenario
// churned leadership on every heal — and, under CPU starvation, on every
// spurious election timeout.
func TestPreVoteBlocksDisruption(t *testing.T) {
	fab := faultnet.New(transport.Inproc{}, 7)
	g := newGroup(t, 3, fab)
	ld := g.waitLeader(2 * time.Second)
	g.propose(ld, "a")

	// Pick a follower and cut it off; the leader keeps committing, so the
	// isolated member's log goes stale.
	var iso *tnode
	for _, tn := range g.live() {
		if tn.id != ld.id {
			iso = tn
			break
		}
	}
	fab.Isolate(iso.id)
	want := []string{"a"}
	for i := 0; i < 3; i++ {
		cmd := fmt.Sprintf("during-%d", i)
		g.propose(ld, cmd)
		want = append(want, cmd)
	}
	termBefore := ld.node.Status().Term

	// Let the isolated member's election timer fire many times. Its
	// pre-vote rounds get no grants, so its persisted term must not move.
	time.Sleep(10 * g.et)
	if got := iso.node.Status().Term; got != termBefore {
		t.Fatalf("isolated member inflated its term to %d (group at %d)", got, termBefore)
	}

	fab.Heal()
	// The healed member converges without disturbing the leader: same
	// leader, same term, no re-election.
	g.waitVals(want, 4*time.Second)
	if !ld.node.IsLeader() {
		t.Fatalf("leader %s was deposed by a healed stale member", ld.id)
	}
	if got := ld.node.Status().Term; got != termBefore {
		t.Fatalf("heal churned the term: %d -> %d", termBefore, got)
	}
	g.propose(ld, "post")
	g.waitVals(append(want, "post"), 2*time.Second)
}
