package sharedlog

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/rsm"
	"bespokv/internal/store/wal"
	"bespokv/internal/transport"
)

var logAddrSeq atomic.Uint64

// logGroup is a replicated shared-log test harness: n members over
// inproc, each with its own MemFS-backed replicated log.
type logGroup struct {
	t     testing.TB
	net   transport.Network
	ids   []string
	peers map[string]string
	fss   map[string]*wal.MemFS
	srvs  map[string]*Server
	// seg and snapEvery shrink the segment size and the checkpoint period
	// (zero: the defaults).
	seg       int
	snapEvery uint64
}

func newLogGroup(t testing.TB, n int) *logGroup {
	t.Helper()
	return newSmallLogGroup(t, n, 0, 0)
}

func newSmallLogGroup(t testing.TB, n, seg int, snapEvery uint64) *logGroup {
	t.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	seq := logAddrSeq.Add(1)
	g := &logGroup{
		t:     t,
		net:   net,
		peers: map[string]string{},
		fss:   map[string]*wal.MemFS{},
		srvs:  map[string]*Server{},
		seg:   seg, snapEvery: snapEvery,
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("seq-%d", i)
		g.ids = append(g.ids, id)
		g.peers[id] = fmt.Sprintf("logrep-%d-%d", seq, i)
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

func (g *logGroup) start(id string) {
	g.t.Helper()
	logf := g.t.Logf
	if _, bench := g.t.(*testing.B); bench {
		logf = nil // elections and snapshot installs would bury the rows
	}
	s, err := Serve(Config{
		Network:        g.net,
		Addr:           g.peers[id],
		SegmentEntries: g.seg,
		Replication: &rsm.GroupConfig{
			ID:              id,
			Peers:           g.peers,
			Dir:             "seq",
			FS:              g.fss[id],
			ElectionTimeout: 60 * time.Millisecond,
			SnapshotEvery:   g.snapEvery,
		},
		Logf: logf,
	})
	if err != nil {
		g.t.Fatalf("start %s: %v", id, err)
	}
	g.srvs[id] = s
}

func (g *logGroup) stop(id string) {
	g.t.Helper()
	if s := g.srvs[id]; s != nil {
		s.Close()
		delete(g.srvs, id)
	}
}

func (g *logGroup) waitLeader() string {
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
	g.t.Fatal("no sequencer leader elected")
	return ""
}

func (g *logGroup) client() *Client {
	g.t.Helper()
	var addrs []string
	for _, id := range g.ids {
		addrs = append(addrs, g.peers[id])
	}
	c, err := DialClient(g.net, strings.Join(addrs, ","))
	if err != nil {
		g.t.Fatal(err)
	}
	g.t.Cleanup(func() { c.Close() })
	return c
}

// appendRetry keeps appending through leadership churn until a leader
// sequences the batch.
func appendRetry(t *testing.T, c *Client, entries ...[]byte) uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		first, err := c.Append(entries...)
		if err == nil {
			return first
		}
		if time.Now().After(deadline) {
			t.Fatalf("append never sequenced: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicatedSequencer proves offsets are assigned by the replicated
// counter and the ordered entries land on every member.
func TestReplicatedSequencer(t *testing.T) {
	g := newLogGroup(t, 3)
	g.waitLeader()
	c := g.client()
	if first := appendRetry(t, c, []byte("a"), []byte("b")); first != 0 {
		t.Fatalf("first offset = %d, want 0", first)
	}
	if first := appendRetry(t, c, []byte("c")); first != 2 {
		t.Fatalf("second batch offset = %d, want 2", first)
	}
	// Every member — including followers — serves the replicated entries
	// (followers lag only by apply, so poll briefly).
	for _, id := range g.ids {
		mc, err := DialClient(g.net, g.peers[id])
		if err != nil {
			t.Fatalf("dial %s: %v", id, err)
		}
		var entries []Entry
		var next uint64
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if entries, next, err = mc.Read(0, 16, 200*time.Millisecond); err != nil {
				break
			}
			if next == 3 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		mc.Close()
		if err != nil {
			t.Fatalf("read on %s: %v", id, err)
		}
		if next != 3 || len(entries) != 3 || string(entries[2].Data) != "c" {
			t.Fatalf("%s serves %d entries next=%d", id, len(entries), next)
		}
	}
}

// TestSequencerLeaderKill kills the sequencer leader mid-stream: the
// counter continues exactly where it left off (no reused or skipped acked
// offsets) and every acked entry survives — zero acked-write loss.
func TestSequencerLeaderKill(t *testing.T) {
	g := newLogGroup(t, 3)
	lead := g.waitLeader()
	c := g.client()
	var acked []string
	for i := 0; i < 5; i++ {
		payload := fmt.Sprintf("pre-%d", i)
		if first := appendRetry(t, c, []byte(payload)); first != uint64(i) {
			t.Fatalf("offset %d assigned for append %d", first, i)
		}
		acked = append(acked, payload)
	}

	g.stop(lead)
	if next := g.waitLeader(); next == lead {
		t.Fatalf("dead member %s still leads", lead)
	}

	// The client rotates onto the new leader; the counter resumes at 5.
	first := appendRetry(t, c, []byte("post-0"))
	if first != 5 {
		t.Fatalf("post-failover offset = %d, want 5 (counter lost or double-assigned)", first)
	}
	acked = append(acked, "post-0")

	entries, next, err := c.Read(0, 64, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if int(next) != len(acked) || len(entries) != len(acked) {
		t.Fatalf("history has %d entries next=%d, want %d", len(entries), next, len(acked))
	}
	for i, e := range entries {
		if string(e.Data) != acked[i] || e.Offset != uint64(i) {
			t.Fatalf("entry %d = %q@%d, want %q@%d", i, e.Data, e.Offset, acked[i], i)
		}
	}
}

// TestSequencerFollowerRedirect pins the redirect contract: followers
// refuse appends with NotLeader, and a client dialed at a single follower
// still appends via the hint.
func TestSequencerFollowerRedirect(t *testing.T) {
	g := newLogGroup(t, 3)
	lead := g.waitLeader()
	for _, id := range g.ids {
		if id == lead {
			continue
		}
		if _, err := g.srvs[id].node.Submit((&AppendArgs{Entries: [][]byte{{1}}}).AppendWire(nil)); err == nil {
			t.Fatalf("follower %s would sequence appends", id)
		} else if !rsm.IsNotLeader(err) {
			t.Fatalf("follower %s returns %v, want NotLeader", id, err)
		}
		c, err := DialClient(g.net, g.peers[id])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Append([]byte("via-" + id)); err != nil {
			t.Fatalf("append via follower %s: %v", id, err)
		}
		c.Close()
	}
}

// TestSequencerRestartRecovers restarts every member from its durable log:
// the counter and entries must come back without any re-append.
func TestSequencerRestartRecovers(t *testing.T) {
	g := newLogGroup(t, 3)
	g.waitLeader()
	c := g.client()
	st := c.Stream("shard-7")
	appendRetry(t, st, []byte("x"), []byte("y"))
	for _, id := range g.ids {
		g.stop(id)
	}
	for _, id := range g.ids {
		g.start(id)
	}
	g.waitLeader()
	if first := appendRetry(t, st, []byte("z")); first != 2 {
		t.Fatalf("post-restart offset = %d, want 2", first)
	}
	entries, next, err := st.Read(0, 16, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if next != 3 || len(entries) != 3 {
		t.Fatalf("restart lost entries: %d next=%d", len(entries), next)
	}
}

// shape is what retention decides about one stream on one member.
type shape struct {
	next, trimmed uint64
	bases         string
}

func (g *logGroup) shapeOf(id, stream string) shape {
	s := g.srvs[id]
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.streams[stream]
	if st == nil {
		return shape{}
	}
	sh := shape{next: st.next, trimmed: st.trimmed}
	for _, seg := range st.segs {
		sh.bases += fmt.Sprintf("%d+%d ", seg.base, seg.count())
	}
	return sh
}

// TestReplicatedRetention: trimming is part of the replicated append, so
// every member of a group drops the same segments at the same offsets —
// also a member that rebuilt its state from a checkpoint plus the log
// suffix — and each of them tells a reader below the floor where the
// stream starts.
func TestReplicatedRetention(t *testing.T) {
	const seg = 4
	g := newSmallLogGroup(t, 3, seg, 8)
	g.waitLeader()
	c := g.client().Stream("shard-3")
	total := 0
	for i := 0; i < 40; i++ {
		batch := make([][]byte, 1+i%3)
		for j := range batch {
			batch[j] = []byte{byte(total + j)}
		}
		if first := appendRetry(t, c, batch...); first != uint64(total) {
			t.Fatalf("append %d: first=%d, want %d", i, first, total)
		}
		total += len(batch)
	}
	if total <= RetainSegments*seg {
		t.Fatalf("test appends %d records, the window is %d", total, RetainSegments*seg)
	}
	agree := func(when string) shape {
		t.Helper()
		var want shape
		deadline := time.Now().Add(5 * time.Second)
		for {
			same := true
			want = g.shapeOf(g.ids[0], "shard-3")
			for _, id := range g.ids[1:] {
				same = same && g.shapeOf(id, "shard-3") == want
			}
			if same && want.next == uint64(total) {
				break
			}
			if time.Now().After(deadline) {
				for _, id := range g.ids {
					t.Logf("%s: %+v", id, g.shapeOf(id, "shard-3"))
				}
				t.Fatalf("%s: members disagree on the retained log", when)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if want.trimmed == 0 || want.trimmed%seg != 0 || want.next-want.trimmed > RetainSegments*seg {
			t.Fatalf("%s: floor %d tail %d", when, want.trimmed, want.next)
		}
		return want
	}
	before := agree("live")
	for _, id := range g.ids {
		mc, err := DialClient(g.net, g.peers[id])
		if err != nil {
			t.Fatal(err)
		}
		var te *TrimmedError
		if _, _, err := mc.Stream("shard-3").Read(0, 10, 0); !errors.As(err, &te) || te.Oldest != before.trimmed {
			t.Fatalf("%s: read below the floor: %v", id, err)
		}
		mc.Close()
	}
	for _, id := range g.ids {
		g.stop(id)
	}
	for _, id := range g.ids {
		g.start(id)
		// The member came back from a checkpoint (logSM.Snapshot's binary
		// form) plus the log above it, not from the log alone.
		if st := g.srvs[id].node.Status(); st.SnapshotIndex == 0 {
			t.Fatalf("%s restarted without a checkpoint: %+v", id, st)
		}
	}
	g.waitLeader()
	if after := agree("restored"); after != before {
		t.Fatalf("restore changed the retained log: %+v, was %+v", after, before)
	}
}
