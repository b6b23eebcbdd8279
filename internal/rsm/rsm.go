// Package rsm is a stdlib-only replicated state machine for the control
// plane: Raft-style leader election with randomized timeouts, log
// replication with commit-index advancement, and snapshot/compaction over
// the same CRC-framed wal.FS storage the datalets use (so faultfs crash
// and torn-write injection applies). The coordinator's shard map, the
// DLM's lease table, and the shared-log sequencer each run as a
// StateMachine on a group of one or of any odd size; their RPC front
// ends forward through the leader and reject elsewhere with the
// NotLeaderError redirect contract, which clients follow by re-dialing.
//
// The profile of a larger group is a control plane's: the implementation
// favors one mutex and synchronous fsyncs over pipelined persistence, and
// spends its complexity budget on the availability levers — check-quorum
// stepdown (a partitioned leader stops answering within ~2 election
// timeouts, so clients re-route), sticky-leader vote rejection (a healed
// flapping member cannot depose a live leader), and a no-op barrier entry
// on election (the new leader commits its predecessors' tail immediately).
//
// A group of one is the degenerate quorum, and it is how every service
// runs that is not given peers: the same code with the round trips elided.
// It leads from the start (nobody to wait for or vote with), commits and
// applies an entry inside Submit (its own copy is the majority) and takes
// no peer traffic. Without a Dir it also keeps nothing — neither the entry
// nor a checkpoint, since no follower will ask for one and no restart will
// read one — and reads the caller's command in place.
package rsm

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/rpc"
	"bespokv/internal/store/wal"
	"bespokv/internal/transport"
)

// StateMachine is the deterministic core a service replicates. Apply is
// invoked exactly once per committed index, in index order, on every
// member (with Node internals locked — it must not call back into the
// Node); its return value is handed to the local Propose caller. Snapshot
// and Restore move the full state for compaction and follower catch-up,
// and must round-trip exactly: Restore(Snapshot()) followed by the same
// Applies must yield the same state on every member.
type StateMachine interface {
	Apply(index uint64, cmd []byte) any
	Snapshot() []byte
	Restore(data []byte)
}

// Config configures one member of a replication group: its GroupConfig
// plus the pieces the service hosting it provides.
type Config struct {
	GroupConfig

	// Mux receives the RSM.* handlers; the owning service serves it (one
	// address carries both Raft and service traffic).
	Mux *rpc.Server
	// Network dials peers; nil means the registered "tcp" transport.
	Network transport.Network

	SM StateMachine

	// OnLeader, when set, is notified (on its own goroutine) each time
	// this member gains or loses leadership — services use it to resume
	// interrupted work (e.g. a coordinator transition drain) on the new
	// leader. A gain is reported once the term's no-op has applied, so the
	// state machine then reflects every entry committed before the term.
	OnLeader func(term uint64, isLeader bool)

	// Logf receives election/replication events; nil discards them.
	Logf func(format string, args ...any)
}

type role int

const (
	follower role = iota
	candidate
	leader
)

func (r role) String() string {
	switch r {
	case leader:
		return "leader"
	case candidate:
		return "candidate"
	default:
		return "follower"
	}
}

// maxAppendEntries caps one AppendEntries batch; a lagging follower
// catches up over several round trips instead of one oversized frame.
const maxAppendEntries = 512

// Node is one member of a replication group.
type Node struct {
	cfg  Config
	net  transport.Network
	solo bool // a group of one: see the package comment

	mu          sync.Mutex
	st          *storage
	state       role
	leaderID    string
	commitIndex uint64
	lastApplied uint64
	noop        uint64 // index of the no-op this member appended on taking leadership

	electionDeadline time.Time
	lastContact      time.Time // last append/snapshot from a current leader
	preVoteSeq       uint64    // invalidates in-flight pre-vote rounds

	// Leader bookkeeping, keyed by peer ID (never self).
	next     map[string]uint64
	match    map[string]uint64
	lastAck  map[string]time.Time
	inflight map[string]bool

	waiters map[uint64]waiter

	stopped bool
	stopCh  chan struct{}
	tickWG  sync.WaitGroup

	pmu   sync.Mutex
	peers map[string]*rpc.Client

	gIsLeader, gTerm, gCommit, gApplied *metrics.Gauge
}

type waiter struct {
	term uint64
	ch   chan waitResult
}

type waitResult struct {
	res  any
	lost bool
}

// Start opens (or recovers) the member's durable state, registers the
// RSM.* handlers on cfg.Mux, and begins ticking — or, a group of one,
// leads. The caller serves the Mux.
func Start(cfg Config) (*Node, error) {
	if cfg.ID == "" || cfg.Peers[cfg.ID] == "" {
		return nil, fmt.Errorf("rsm: Config.ID %q must appear in Peers", cfg.ID)
	}
	if cfg.SM == nil {
		return nil, fmt.Errorf("rsm: Config.SM required")
	}
	if cfg.Mux == nil {
		return nil, fmt.Errorf("rsm: Config.Mux required")
	}
	if cfg.Dir == "" && len(cfg.Peers) > 1 {
		return nil, fmt.Errorf("rsm: a group of %d needs a Dir", len(cfg.Peers))
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 150 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.ElectionTimeout / 5
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 1024
	}
	net := cfg.Network
	if net == nil {
		var err error
		net, err = transport.Lookup("tcp")
		if err != nil {
			return nil, err
		}
	}
	st, err := openStorage(cfg.FS, cfg.Dir)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:       cfg,
		net:       net,
		solo:      len(cfg.Peers) == 1,
		st:        st,
		next:      map[string]uint64{},
		match:     map[string]uint64{},
		lastAck:   map[string]time.Time{},
		inflight:  map[string]bool{},
		waiters:   map[uint64]waiter{},
		stopCh:    make(chan struct{}),
		peers:     map[string]*rpc.Client{},
		gIsLeader: metrics.Default.Gauge("bespokv_rsm_is_leader", "id", cfg.ID),
		gTerm:     metrics.Default.Gauge("bespokv_rsm_term", "id", cfg.ID),
		gCommit:   metrics.Default.Gauge("bespokv_rsm_commit_index", "id", cfg.ID),
		gApplied:  metrics.Default.Gauge("bespokv_rsm_applied_index", "id", cfg.ID),
	}
	if st.snapData != nil || st.snap.Index > 0 {
		cfg.SM.Restore(st.snapData)
	}
	n.commitIndex = st.snap.Index
	n.lastApplied = st.snap.Index
	n.gTerm.Set(int64(st.term))
	n.gCommit.Set(int64(n.commitIndex))
	n.gApplied.Set(int64(n.lastApplied))
	n.resetElectionTimerLocked()

	rpc.HandleFunc(cfg.Mux, "RSM.Status", func(struct{}) (Status, error) {
		return n.Status(), nil
	})
	if n.solo {
		n.mu.Lock()
		err := n.leadAloneLocked()
		n.mu.Unlock()
		if err != nil {
			n.Close()
			return nil, err
		}
		return n, nil
	}
	rpc.HandleFunc(cfg.Mux, "RSM.Vote", n.handleVote)
	rpc.HandleFunc(cfg.Mux, "RSM.Append", n.handleAppend)
	rpc.HandleFunc(cfg.Mux, "RSM.Snap", n.handleSnap)

	n.tickWG.Add(1)
	go n.run()
	return n, nil
}

// leadAloneLocked starts a group of one: everything in its log is committed
// (it was the whole quorum for every entry), so it applies all of it and
// takes the next term at once — no election timeout, no ticker, no peers.
func (n *Node) leadAloneLocked() error {
	n.commitIndex = n.st.lastIndex()
	n.applyLocked()
	if err := n.st.saveHardState(n.st.term+1, n.cfg.ID); err != nil {
		return err
	}
	n.gTerm.Set(int64(n.st.term))
	n.becomeLeaderLocked()
	return nil
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Close stops the member: pending proposals fail, peer connections close,
// and the log is synced shut. The caller closes the Mux.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return nil
	}
	n.stopped = true
	// A closed member must not keep claiming leadership: callers poll
	// IsLeader across members to find the live leader after a kill.
	n.state = follower
	close(n.stopCh)
	for i, w := range n.waiters {
		delete(n.waiters, i)
		w.ch <- waitResult{lost: true}
	}
	n.mu.Unlock()
	n.tickWG.Wait()
	n.pmu.Lock()
	for id, c := range n.peers {
		delete(n.peers, id)
		c.Close()
	}
	n.pmu.Unlock()
	n.mu.Lock()
	err := n.st.close()
	n.mu.Unlock()
	for _, name := range []string{"bespokv_rsm_is_leader", "bespokv_rsm_term", "bespokv_rsm_commit_index", "bespokv_rsm_applied_index"} {
		metrics.Default.Unregister(name, "id", n.cfg.ID)
	}
	return err
}

// ---- timers ----

func (n *Node) resetElectionTimerLocked() {
	et := n.cfg.ElectionTimeout
	n.electionDeadline = time.Now().Add(et + rand.N(et))
}

func (n *Node) run() {
	defer n.tickWG.Done()
	t := time.NewTicker(n.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
		}
		n.tick()
	}
}

func (n *Node) tick() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	if n.state == leader {
		if !n.quorumAliveLocked() {
			// Check-quorum: without acks from a majority we may already
			// be deposed on the other side of a partition; stop serving
			// so clients find the real leader instead of a stale one.
			n.logf("rsm %s: lost quorum contact at term %d, stepping down", n.cfg.ID, n.st.term)
			n.stepDownLocked(n.st.term, "")
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		n.broadcast()
		return
	}
	if time.Now().After(n.electionDeadline) {
		n.campaignLocked() // unlocks internally
		return
	}
	n.mu.Unlock()
}

// quorumAliveLocked reports whether a majority (including self) has acked
// an append within the last two election timeouts.
func (n *Node) quorumAliveLocked() bool {
	cutoff := time.Now().Add(-2 * n.cfg.ElectionTimeout)
	alive := 1
	for id := range n.cfg.Peers {
		if id == n.cfg.ID {
			continue
		}
		if n.lastAck[id].After(cutoff) {
			alive++
		}
	}
	return alive >= n.quorum()
}

func (n *Node) quorum() int { return len(n.cfg.Peers)/2 + 1 }

// ---- role transitions ----

// stepDownLocked moves to follower. A higher term is persisted with the
// vote cleared; pending proposals fail with lost-leadership.
func (n *Node) stepDownLocked(term uint64, leaderID string) {
	wasLeader := n.state == leader
	oldTerm := n.st.term
	n.state = follower
	n.leaderID = leaderID
	if term > n.st.term {
		if err := n.st.saveHardState(term, ""); err != nil {
			n.logf("rsm %s: persist term %d: %v", n.cfg.ID, term, err)
		}
		n.gTerm.Set(int64(term))
	}
	n.resetElectionTimerLocked()
	if wasLeader {
		n.gIsLeader.Set(0)
		for i, w := range n.waiters {
			delete(n.waiters, i)
			w.ch <- waitResult{lost: true}
		}
		if fn := n.cfg.OnLeader; fn != nil {
			go fn(oldTerm, false)
		}
	}
}

// campaignLocked runs the pre-vote phase (Raft §9.6): probe peers for
// electability at term+1 WITHOUT bumping the persisted term. Without this,
// a starved or partitioned member that cannot win (stale log, no quorum)
// inflates its term on every failed campaign, and that term — leaking back
// through append replies — deposes a healthy leader each time the member's
// timer fires. The real election only starts once a majority says it would
// vote for us. Called with n.mu held; unlocks internally.
func (n *Node) campaignLocked() {
	n.resetElectionTimerLocked()
	n.preVoteSeq++
	seq := n.preVoteSeq
	cur := n.st.term
	start := time.Now()
	lli := n.st.lastIndex()
	llt, _ := n.st.termAt(lli)
	n.mu.Unlock()

	args := VoteArgs{Term: cur + 1, Candidate: n.cfg.ID,
		LastLogIndex: lli, LastLogTerm: llt, PreVote: true}
	grants := 1 // self; incremented under n.mu
	for id := range n.cfg.Peers {
		if id == n.cfg.ID {
			continue
		}
		go func(id string) {
			var rep VoteReply
			if err := n.callPeer(id, "RSM.Vote", args, &rep); err != nil {
				return
			}
			n.mu.Lock()
			if n.stopped {
				n.mu.Unlock()
				return
			}
			if rep.Term > n.st.term {
				n.stepDownLocked(rep.Term, "")
				n.mu.Unlock()
				return
			}
			// The round is void once anything moved: a newer round
			// started, the term advanced, or a leader reached us since
			// the round began (the remembered leaderID alone may be a
			// stale pointer at a dead member — not disqualifying).
			if n.preVoteSeq != seq || n.st.term != cur ||
				n.state == leader || n.lastContact.After(start) || !rep.Granted {
				n.mu.Unlock()
				return
			}
			grants++
			if grants >= n.quorum() {
				n.preVoteSeq++ // consume: late grants must not re-elect
				n.electLocked()
				return
			}
			n.mu.Unlock()
		}(id)
	}
}

// electLocked starts a real election at term+1; the lock is released
// before the vote fan-out. Called with n.mu held; unlocks internally.
func (n *Node) electLocked() {
	if err := n.st.saveHardState(n.st.term+1, n.cfg.ID); err != nil {
		n.logf("rsm %s: persist candidacy: %v", n.cfg.ID, err)
		n.mu.Unlock()
		return
	}
	n.state = candidate
	n.leaderID = ""
	n.resetElectionTimerLocked()
	term := n.st.term
	n.gTerm.Set(int64(term))
	lli := n.st.lastIndex()
	llt, _ := n.st.termAt(lli)
	n.logf("rsm %s: campaigning at term %d (last log %d/%d)", n.cfg.ID, term, lli, llt)
	votes := 1 // self
	n.mu.Unlock()

	args := VoteArgs{Term: term, Candidate: n.cfg.ID, LastLogIndex: lli, LastLogTerm: llt}
	for id := range n.cfg.Peers {
		if id == n.cfg.ID {
			continue
		}
		go func(id string) {
			var rep VoteReply
			if err := n.callPeer(id, "RSM.Vote", args, &rep); err != nil {
				return
			}
			n.mu.Lock()
			if n.stopped {
				n.mu.Unlock()
				return
			}
			if rep.Term > n.st.term {
				n.stepDownLocked(rep.Term, "")
				n.mu.Unlock()
				return
			}
			if n.state != candidate || n.st.term != term || !rep.Granted {
				n.mu.Unlock()
				return
			}
			votes++
			won := votes >= n.quorum()
			if won {
				n.becomeLeaderLocked()
			}
			n.mu.Unlock()
			if won {
				n.broadcast()
			}
		}(id)
	}
}

// becomeLeaderLocked initializes leader state and appends the term's no-op
// barrier entry, which both asserts leadership to followers and lets the
// commit index advance over any uncommitted tail from prior terms.
func (n *Node) becomeLeaderLocked() {
	n.state = leader
	n.leaderID = n.cfg.ID
	now := time.Now()
	li := n.st.lastIndex()
	for id := range n.cfg.Peers {
		if id == n.cfg.ID {
			continue
		}
		n.next[id] = li + 1
		n.match[id] = 0
		n.lastAck[id] = now
	}
	n.gIsLeader.Set(1)
	n.logf("rsm %s: elected leader at term %d", n.cfg.ID, n.st.term)
	n.noop = li + 1
	noop := Entry{Term: n.st.term, Index: n.noop}
	var err error
	if n.solo {
		_, err = n.commitAloneLocked(noop)
	} else {
		err = n.st.append([]Entry{noop})
	}
	if err != nil {
		n.logf("rsm %s: append no-op: %v", n.cfg.ID, err)
	}
}

// ---- client surface ----

// IsLeader reports whether this member currently believes it leads.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state == leader
}

// NotLeaderErr builds the redirect error for this member's current view.
func (n *Node) NotLeaderErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.notLeaderErrLocked()
}

func (n *Node) notLeaderErrLocked() error {
	hint := ""
	if n.leaderID != n.cfg.ID {
		hint = n.cfg.Peers[n.leaderID]
	}
	return &NotLeaderError{LeaderID: n.leaderID, LeaderAddr: hint}
}

// Propose replicates cmd and waits until it is applied locally, returning
// the StateMachine's result. On a non-leader it fails fast with the
// NotLeaderError redirect. ErrProposeTimeout and ErrLostLeadership leave
// the outcome unknown — the command may still commit.
func (n *Node) Propose(cmd []byte, timeout time.Duration) (any, error) {
	p, err := n.Submit(cmd)
	if err != nil {
		return nil, err
	}
	return p.Wait(timeout)
}

// Proposal is a command Submit has put in the leader's log, on its way to
// being committed — or, in a group of one, already applied.
type Proposal struct {
	n   *Node
	idx uint64
	ch  chan waitResult // nil once applied
	res any             // the StateMachine's result, once applied
}

// Applied reports whether Submit committed and applied the command itself,
// as a group of one does: Wait then returns at once, so a caller on a
// connection's reader can answer there.
func (p Proposal) Applied() bool { return p.ch == nil }

// Submit is the half of Propose that does not wait: it appends cmd to the
// log and starts replication. Commands submitted one after the other from
// one goroutine are applied in that order, which is what a caller that
// must preserve an arrival order needs to do in line; Wait, the slow half,
// can then happen anywhere. A Proposal nobody waits for costs nothing more.
// cmd may be a buffer the caller reuses once Submit returns: Submit copies
// it when it keeps it.
func (n *Node) Submit(cmd []byte) (Proposal, error) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return Proposal{}, ErrStopped
	}
	if n.state != leader {
		err := n.notLeaderErrLocked()
		n.mu.Unlock()
		return Proposal{}, err
	}
	e := Entry{Term: n.st.term, Index: n.st.lastIndex() + 1, Data: cmd}
	if n.solo {
		res, err := n.commitAloneLocked(e)
		n.mu.Unlock()
		return Proposal{res: res}, err
	}
	e.Data = bytes.Clone(cmd)
	if err := n.st.append([]Entry{e}); err != nil {
		n.mu.Unlock()
		return Proposal{}, err
	}
	ch := make(chan waitResult, 1)
	n.waiters[e.Index] = waiter{term: e.Term, ch: ch}
	n.mu.Unlock()
	n.broadcast()
	return Proposal{n: n, idx: e.Index, ch: ch}, nil
}

// commitAloneLocked is a group of one taking e: its own copy is the
// majority, so e is committed as it is appended and applied here, and the
// StateMachine's result comes back. With a Dir e is logged (and compacted
// like any entry); without one it is passed over, kept nowhere, and its
// Data is read in place.
func (n *Node) commitAloneLocked(e Entry) (any, error) {
	kept := n.st.log != nil
	if kept {
		e.Data = bytes.Clone(e.Data)
		if err := n.st.append([]Entry{e}); err != nil {
			return nil, err
		}
	} else {
		n.st.pass(e)
	}
	n.commitIndex = e.Index
	res := n.applyEntryLocked(e)
	n.gCommit.Set(int64(n.commitIndex))
	n.gApplied.Set(int64(n.lastApplied))
	if kept {
		n.maybeCompactLocked()
	}
	return res, nil
}

// Wait blocks until the proposal is applied locally and returns the
// StateMachine's result, with Propose's error contract.
func (p Proposal) Wait(timeout time.Duration) (any, error) {
	if p.Applied() {
		return p.res, nil
	}
	n := p.n
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-p.ch:
		if r.lost {
			return nil, ErrLostLeadership
		}
		return r.res, nil
	case <-timer.C:
		n.mu.Lock()
		delete(n.waiters, p.idx)
		n.mu.Unlock()
		return nil, ErrProposeTimeout
	case <-n.stopCh:
		return nil, ErrStopped
	}
}

// MemberStatus is one member's view in Status.
type MemberStatus struct {
	ID         string `json:"id"`
	Addr       string `json:"addr"`
	Self       bool   `json:"self,omitempty"`
	Match      uint64 `json:"match,omitempty"`
	Next       uint64 `json:"next,omitempty"`
	AckAgeMS   int64  `json:"ack_age_ms,omitempty"`
	LagEntries uint64 `json:"lag,omitempty"`
}

// Status is the introspection snapshot served by RSM.Status, the
// bespokv-cli rsm verb, and /statusz.
type Status struct {
	ID            string         `json:"id"`
	State         string         `json:"state"`
	Term          uint64         `json:"term"`
	Leader        string         `json:"leader,omitempty"`
	LeaderAddr    string         `json:"leader_addr,omitempty"`
	CommitIndex   uint64         `json:"commit_index"`
	AppliedIndex  uint64         `json:"applied_index"`
	LastIndex     uint64         `json:"last_index"`
	SnapshotIndex uint64         `json:"snapshot_index"`
	Members       []MemberStatus `json:"members,omitempty"`
}

// Status reports this member's replication state; per-member lag is only
// meaningful on the leader.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := Status{
		ID:            n.cfg.ID,
		State:         n.state.String(),
		Term:          n.st.term,
		Leader:        n.leaderID,
		LeaderAddr:    n.cfg.Peers[n.leaderID],
		CommitIndex:   n.commitIndex,
		AppliedIndex:  n.lastApplied,
		LastIndex:     n.st.lastIndex(),
		SnapshotIndex: n.st.snap.Index,
	}
	ids := make([]string, 0, len(n.cfg.Peers))
	for id := range n.cfg.Peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	now := time.Now()
	for _, id := range ids {
		m := MemberStatus{ID: id, Addr: n.cfg.Peers[id], Self: id == n.cfg.ID}
		if n.state == leader && !m.Self {
			m.Match = n.match[id]
			m.Next = n.next[id]
			if m.Match < s.LastIndex {
				m.LagEntries = s.LastIndex - m.Match
			}
			if ack := n.lastAck[id]; !ack.IsZero() {
				m.AckAgeMS = now.Sub(ack).Milliseconds()
			}
		}
		s.Members = append(s.Members, m)
	}
	return s
}

// ---- commit + apply ----

// maybeCommitLocked advances the commit index to the highest current-term
// index a majority has persisted, then applies.
func (n *Node) maybeCommitLocked() {
	if n.state != leader {
		return
	}
	for idx := n.st.lastIndex(); idx > n.commitIndex; idx-- {
		t, ok := n.st.termAt(idx)
		if !ok || t != n.st.term {
			// Entries from earlier terms are only committed indirectly,
			// once a current-term entry above them commits (Raft §5.4.2).
			break
		}
		count := 1
		for _, m := range n.match {
			if m >= idx {
				count++
			}
		}
		if count >= n.quorum() {
			n.commitIndex = idx
			n.applyLocked()
			break
		}
	}
}

// applyLocked feeds newly committed entries to the state machine in index
// order and wakes their proposers. This is the RSM hot path: it must stay
// allocation-free (gated by TestApplyZeroAlloc) so a burst of committed
// control-plane ops doesn't stall the leader in GC.
func (n *Node) applyLocked() {
	for n.lastApplied < n.commitIndex {
		i := n.lastApplied + 1
		e := n.st.entryAt(i)
		res := n.applyEntryLocked(e)
		if w, ok := n.waiters[i]; ok {
			delete(n.waiters, i)
			if w.term == e.Term {
				w.ch <- waitResult{res: res}
			} else {
				w.ch <- waitResult{lost: true}
			}
		}
	}
	n.gCommit.Set(int64(n.commitIndex))
	n.gApplied.Set(int64(n.lastApplied))
	n.maybeCompactLocked()
}

// applyEntryLocked feeds one committed entry to the state machine (a no-op
// has nothing to feed) and, when it is the no-op this leader appended for
// its term, tells OnLeader that the leader is current.
func (n *Node) applyEntryLocked(e Entry) any {
	var res any
	if len(e.Data) > 0 {
		res = n.cfg.SM.Apply(e.Index, e.Data)
	}
	n.lastApplied = e.Index
	if e.Index == n.noop && e.Term == n.st.term && n.state == leader {
		if fn := n.cfg.OnLeader; fn != nil {
			go fn(e.Term, true)
		}
	}
	return res
}

// maybeCompactLocked checkpoints and drops the log once enough entries
// have applied since the last checkpoint.
func (n *Node) maybeCompactLocked() {
	if n.lastApplied-n.st.snap.Index < n.cfg.SnapshotEvery {
		return
	}
	t, _ := n.st.termAt(n.lastApplied)
	data := n.cfg.SM.Snapshot()
	if err := n.st.compact(SnapMeta{Index: n.lastApplied, Term: t}, data); err != nil {
		n.logf("rsm %s: compact at %d: %v", n.cfg.ID, n.lastApplied, err)
	}
}

// ---- replication (leader side) ----

// broadcast starts one replication pass to every peer that doesn't
// already have one in flight.
func (n *Node) broadcast() {
	n.mu.Lock()
	if n.state != leader || n.stopped {
		n.mu.Unlock()
		return
	}
	var start []string
	for id := range n.cfg.Peers {
		if id == n.cfg.ID || n.inflight[id] {
			continue
		}
		n.inflight[id] = true
		start = append(start, id)
	}
	n.mu.Unlock()
	for _, id := range start {
		go n.replicateTo(id)
	}
}

// replicateTo drives one peer until it is caught up or the exchange
// fails; the inflight flag guarantees a single driver per peer.
func (n *Node) replicateTo(id string) {
	for {
		n.mu.Lock()
		if n.state != leader || n.stopped {
			n.inflight[id] = false
			n.mu.Unlock()
			return
		}
		term := n.st.term
		if n.next[id] <= n.st.snap.Index {
			// The peer needs entries we compacted away: ship the
			// checkpoint image instead.
			args := SnapArgs{
				Term:   term,
				Leader: n.cfg.ID,
				Meta:   n.st.snap,
				Data:   n.st.snapData,
			}
			n.mu.Unlock()
			var rep SnapReply
			err := n.callPeer(id, "RSM.Snap", args, &rep)
			n.mu.Lock()
			if n.stopped || err != nil {
				n.inflight[id] = false
				n.mu.Unlock()
				return
			}
			n.lastAck[id] = time.Now()
			if rep.Term > n.st.term {
				n.stepDownLocked(rep.Term, "")
				n.inflight[id] = false
				n.mu.Unlock()
				return
			}
			if n.state == leader && n.st.term == term {
				if args.Meta.Index > n.match[id] {
					n.match[id] = args.Meta.Index
				}
				n.next[id] = args.Meta.Index + 1
			}
			n.mu.Unlock()
			continue
		}

		prev := n.next[id] - 1
		prevTerm, _ := n.st.termAt(prev)
		var ents []Entry
		if from := n.next[id]; from <= n.st.lastIndex() {
			count := n.st.lastIndex() - from + 1
			if count > maxAppendEntries {
				count = maxAppendEntries
			}
			// Copy under the lock: a concurrent truncate-then-append may
			// overwrite the backing array while this batch marshals.
			lo := from - n.st.snap.Index - 1
			ents = append(make([]Entry, 0, count), n.st.entries[lo:lo+count]...)
		}
		args := AppendArgs{
			Term:         term,
			Leader:       n.cfg.ID,
			PrevLogIndex: prev,
			PrevLogTerm:  prevTerm,
			Entries:      ents,
			LeaderCommit: n.commitIndex,
		}
		n.mu.Unlock()

		var rep AppendReply
		err := n.callPeer(id, "RSM.Append", args, &rep)
		n.mu.Lock()
		if n.stopped || err != nil {
			n.inflight[id] = false
			n.mu.Unlock()
			return
		}
		n.lastAck[id] = time.Now()
		if rep.Term > n.st.term {
			n.stepDownLocked(rep.Term, "")
			n.inflight[id] = false
			n.mu.Unlock()
			return
		}
		if n.state != leader || n.st.term != term {
			n.inflight[id] = false
			n.mu.Unlock()
			return
		}
		if rep.Success {
			if rep.MatchIndex > n.match[id] {
				n.match[id] = rep.MatchIndex
			}
			n.next[id] = n.match[id] + 1
			n.maybeCommitLocked()
			if n.next[id] > n.st.lastIndex() {
				n.inflight[id] = false
				n.mu.Unlock()
				return
			}
			n.mu.Unlock()
			continue // more tail to send
		}
		// Log mismatch: jump back to the follower's conflict hint.
		ni := rep.ConflictIndex
		if ni == 0 || ni >= n.next[id] {
			ni = n.next[id] - 1
		}
		if ni < 1 {
			ni = 1
		}
		n.next[id] = ni
		n.mu.Unlock()
	}
}

// ---- RPC handlers (follower side) ----

// VoteArgs asks for a vote in Term.
type VoteArgs struct {
	Term         uint64 `json:"term"`
	Candidate    string `json:"cand"`
	LastLogIndex uint64 `json:"lli"`
	LastLogTerm  uint64 `json:"llt"`
	// PreVote asks "would you vote for me at Term?" without the voter
	// adopting Term or recording a vote — the candidate only bumps its
	// term once a majority says yes.
	PreVote bool `json:"pre,omitempty"`
}

// VoteReply grants or rejects, carrying the voter's term.
type VoteReply struct {
	Term    uint64 `json:"term"`
	Granted bool   `json:"granted,omitempty"`
}

// AppendArgs replicates log entries (empty for heartbeats).
type AppendArgs struct {
	Term         uint64  `json:"term"`
	Leader       string  `json:"leader"`
	PrevLogIndex uint64  `json:"pli"`
	PrevLogTerm  uint64  `json:"plt"`
	Entries      []Entry `json:"ents,omitempty"`
	LeaderCommit uint64  `json:"commit"`
}

// AppendReply acknowledges or reports a conflict hint.
type AppendReply struct {
	Term          uint64 `json:"term"`
	Success       bool   `json:"ok,omitempty"`
	MatchIndex    uint64 `json:"match,omitempty"`
	ConflictIndex uint64 `json:"conflict,omitempty"`
}

// SnapArgs installs a checkpoint image on a lagging follower.
type SnapArgs struct {
	Term   uint64   `json:"term"`
	Leader string   `json:"leader"`
	Meta   SnapMeta `json:"meta"`
	Data   []byte   `json:"data"`
}

// SnapReply carries the follower's term.
type SnapReply struct {
	Term uint64 `json:"term"`
}

func (n *Node) handleVote(a VoteArgs) (VoteReply, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	rep := VoteReply{Term: n.st.term}
	if n.stopped || a.Term < n.st.term {
		return rep, nil
	}
	// Sticky leader: while we hear from a live leader, refuse to help
	// depose it — and don't adopt the bigger term either, or a flapping
	// partitioned member would still churn the group every heal (Raft
	// §4.2.3). A leader with live quorum contact is its own evidence.
	if n.state == leader && n.quorumAliveLocked() {
		return rep, nil
	}
	if n.state == follower && n.leaderID != "" &&
		time.Since(n.lastContact) < n.cfg.ElectionTimeout {
		return rep, nil
	}
	lli := n.st.lastIndex()
	llt, _ := n.st.termAt(lli)
	upToDate := a.LastLogTerm > llt || (a.LastLogTerm == llt && a.LastLogIndex >= lli)
	if a.PreVote {
		// No state change at all: no term adoption, no persisted vote, no
		// election-timer reset. Grant iff the real election could succeed.
		rep.Granted = a.Term > n.st.term && upToDate
		return rep, nil
	}
	if a.Term > n.st.term {
		n.stepDownLocked(a.Term, "")
		rep.Term = n.st.term
	}
	if upToDate && (n.st.votedFor == "" || n.st.votedFor == a.Candidate) {
		if err := n.st.saveHardState(n.st.term, a.Candidate); err != nil {
			n.logf("rsm %s: persist vote: %v", n.cfg.ID, err)
			return rep, nil // an unpersisted vote must not be granted
		}
		n.resetElectionTimerLocked()
		rep.Granted = true
	}
	return rep, nil
}

func (n *Node) handleAppend(a AppendArgs) (AppendReply, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	rep := AppendReply{Term: n.st.term}
	if n.stopped || a.Term < n.st.term {
		return rep, nil
	}
	if a.Term > n.st.term || n.state != follower {
		n.stepDownLocked(a.Term, a.Leader)
	}
	n.leaderID = a.Leader
	n.lastContact = time.Now()
	n.resetElectionTimerLocked()
	rep.Term = n.st.term

	// Consistency check at the previous index. Anything at or below our
	// snapshot is committed and therefore matches by construction.
	if a.PrevLogIndex > n.st.snap.Index {
		li := n.st.lastIndex()
		if a.PrevLogIndex > li {
			rep.ConflictIndex = li + 1
			return rep, nil
		}
		t, _ := n.st.termAt(a.PrevLogIndex)
		if t != a.PrevLogTerm {
			// Hint the first index of the conflicting term so the leader
			// skips the whole run instead of probing one index at a time.
			ci := a.PrevLogIndex
			for ci > n.st.snap.Index+1 {
				pt, _ := n.st.termAt(ci - 1)
				if pt != t {
					break
				}
				ci--
			}
			rep.ConflictIndex = ci
			return rep, nil
		}
	}

	ents := a.Entries
	for len(ents) > 0 {
		e := ents[0]
		if e.Index <= n.st.snap.Index {
			ents = ents[1:]
			continue
		}
		if e.Index <= n.st.lastIndex() {
			if t, _ := n.st.termAt(e.Index); t == e.Term {
				ents = ents[1:]
				continue // already have it
			}
			if err := n.st.truncateFrom(e.Index); err != nil {
				return rep, err
			}
		}
		break
	}
	if len(ents) > 0 {
		if err := n.st.append(ents); err != nil {
			return rep, err
		}
	}
	lastNew := a.PrevLogIndex + uint64(len(a.Entries))
	if lastNew < n.st.snap.Index {
		lastNew = n.st.snap.Index
	}
	if a.LeaderCommit > n.commitIndex {
		nc := a.LeaderCommit
		if nc > lastNew {
			nc = lastNew // only indexes this exchange verified
		}
		if nc > n.commitIndex {
			n.commitIndex = nc
			n.applyLocked()
		}
	}
	rep.Success = true
	rep.MatchIndex = lastNew
	return rep, nil
}

func (n *Node) handleSnap(a SnapArgs) (SnapReply, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	rep := SnapReply{Term: n.st.term}
	if n.stopped || a.Term < n.st.term {
		return rep, nil
	}
	if a.Term > n.st.term || n.state != follower {
		n.stepDownLocked(a.Term, a.Leader)
	}
	n.leaderID = a.Leader
	n.lastContact = time.Now()
	n.resetElectionTimerLocked()
	rep.Term = n.st.term
	if a.Meta.Index <= n.commitIndex {
		return rep, nil // stale image; our own log is further along
	}
	n.cfg.SM.Restore(a.Data)
	if err := n.st.install(a.Meta, a.Data); err != nil {
		return rep, err
	}
	n.commitIndex = a.Meta.Index
	n.lastApplied = a.Meta.Index
	n.gCommit.Set(int64(n.commitIndex))
	n.gApplied.Set(int64(n.lastApplied))
	n.logf("rsm %s: installed snapshot at %d/%d from %s", n.cfg.ID, a.Meta.Index, a.Meta.Term, a.Leader)
	return rep, nil
}

// ---- peer connections ----

// callPeer invokes method on a cached connection to id, re-dialing the
// next time after any failure. The call timeout is one election timeout:
// anything slower is as good as down for leadership purposes.
func (n *Node) callPeer(id, method string, args, reply any) error {
	n.pmu.Lock()
	c := n.peers[id]
	n.pmu.Unlock()
	if c == nil {
		nc, err := rpc.DialClient(n.net, n.cfg.Peers[id])
		if err != nil {
			return err
		}
		nc.CallTimeout = n.cfg.ElectionTimeout
		n.pmu.Lock()
		if n.stopped {
			n.pmu.Unlock()
			nc.Close()
			return ErrStopped
		}
		if cur := n.peers[id]; cur != nil {
			nc.Close()
			c = cur
		} else {
			n.peers[id] = nc
			c = nc
		}
		n.pmu.Unlock()
	}
	err := c.Call(method, args, reply)
	if err != nil {
		// RSM handlers never return application errors, so any failure is
		// connection-level: drop the cache and re-dial next time.
		n.pmu.Lock()
		if n.peers[id] == c {
			delete(n.peers, id)
		}
		n.pmu.Unlock()
		c.Close()
	}
	return err
}

// GroupConfig is the reusable member-and-storage half of Config: services
// that host an RSM group (coordinator, DLM, shared-log sequencer) embed it
// in their own Config as a `Replication *rsm.GroupConfig` field and call
// StartGroup with their service-specific state machine. A nil one is a
// group of one.
type GroupConfig struct {
	// ID is this member's name; Peers[ID] must exist and is the address
	// the other members dial for this member's Mux.
	ID    string
	Peers map[string]string

	// Dir/FS back the persistent log and checkpoint. FS nil means OSFS. A
	// group of one may leave Dir empty and keep nothing.
	Dir string
	FS  wal.FS

	// ElectionTimeout is the base election timeout; a member campaigns
	// after a uniformly random wait in [ET, 2ET) without leader contact.
	// Default 150ms. Heartbeat is the leader's append cadence, default
	// ET/5.
	ElectionTimeout time.Duration
	Heartbeat       time.Duration

	// SnapshotEvery compacts the log after this many applied entries
	// beyond the last checkpoint. Default 1024.
	SnapshotEvery uint64
}

// StartGroup starts a member from a GroupConfig plus the service-side
// pieces (mux, network, state machine, hooks). A nil g makes the service a
// group of one named by addr, the address it listens on, that keeps
// nothing: the standalone server.
func StartGroup(g *GroupConfig, addr string, mux *rpc.Server, network transport.Network, sm StateMachine,
	onLeader func(term uint64, isLeader bool), logf func(format string, args ...any)) (*Node, error) {
	if g == nil {
		g = &GroupConfig{ID: addr, Peers: map[string]string{addr: addr}}
	}
	return Start(Config{GroupConfig: *g, Mux: mux, Network: network, SM: sm, OnLeader: onLeader, Logf: logf})
}
