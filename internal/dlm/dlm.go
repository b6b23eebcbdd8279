// Package dlm is a lease-based distributed lock manager — the
// reproduction's stand-in for the paper's Redlock/ZooKeeper lock service,
// used by the AA+SC controlet. Locks are per-key, shared (read) or
// exclusive (write), carry a TTL so a crashed controlet cannot wedge the
// cluster (the paper's "locks are released after a configurable period"),
// and return monotonically increasing fencing tokens.
//
// The lease table is a replicated state machine (internal/rsm): a group of
// one by default, which is the single-process server, or a larger group
// whose leader grants. Lease
// expiry is tracked on a monotonic clock that never reads wall time: the
// table keeps a nanosecond counter that only moves forward, advanced by
// bounded deltas the leader measures with the runtime's monotonic clock and
// stamps into its Lock and sweep commands. Wall-clock jumps (NTP steps, VM suspends)
// therefore cannot expire a lease early, and since the counter is itself
// replicated state, it pauses across a failover: a lease held when the old
// leader died stretches rather than double-granting.
package dlm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/rpc"
	"bespokv/internal/rsm"
	"bespokv/internal/transport"
)

// Mode selects shared or exclusive locking.
type Mode string

const (
	// Read locks are shared.
	Read Mode = "r"
	// Write locks are exclusive.
	Write Mode = "w"
)

// Config configures a lock server.
type Config struct {
	Network transport.Network
	Addr    string
	// DefaultTTL bounds a lease when the client does not specify one
	// (default 5s).
	DefaultTTL time.Duration
	// SweepInterval is how often expired leases are reclaimed and the
	// lease clock advanced (default DefaultTTL/4); expiry is also checked
	// lazily on every request.
	SweepInterval time.Duration
	// Replication makes this server one member of a lease-table group:
	// every member serves Lock/Unlock on its Peers[ID] address, but only the
	// leader grants; elsewhere calls fail with the rsm.NotLeaderError
	// redirect that clients follow. Nil is a group of one at Addr.
	Replication *rsm.GroupConfig
	Logf        func(format string, args ...any)
}

// leaseState is one key's lease record. Expiries are offsets on the
// table's monotonic clock (nanoseconds since the table was created), never
// wall-clock readings.
type leaseState struct {
	Writer    string           // exclusive owner, "" if none
	WriterExp int64            // writer lease expiry (clock nanos)
	Readers   map[string]int64 // shared holders → expiry; nil until the first one
	Token     uint64           // fencing token of newest grant

	// key is the string this record is filed under in lockTable.Locks, kept
	// so that dropping the record does not have to build it again.
	key string
}

func (st *leaseState) idle() bool { return st.Writer == "" && len(st.Readers) == 0 }

// lockTable is the deterministic core of the lock manager: a pure lease
// table on a monotonic nanosecond clock. It never reads wall time and has
// no randomness, so replicas applying the same command stream converge.
// Its checkpoint form is appendWire's (wire.go).
type lockTable struct {
	Locks     map[string]*leaseState
	NextToken uint64
	// Clock is the lease clock in nanoseconds. It only moves forward, by
	// the deltas carried in commands; it is never compared to wall time.
	Clock int64

	// free holds dropped records (each with its emptied Readers map) for
	// the next grant: a key is locked and released once per operation, and
	// what that costs the heap should be the table's copy of the key only.
	free []*leaseState
}

// maxFreeLeases bounds lockTable.free; records in use at once are about as
// many as there are operations in flight.
const maxFreeLeases = 256

func newLockTable() lockTable {
	return lockTable{Locks: map[string]*leaseState{}}
}

// advance moves the lease clock forward; negative deltas are ignored so
// the clock can never regress.
func (t *lockTable) advance(delta int64) {
	if delta > 0 {
		t.Clock += delta
	}
}

// lease returns key's record, filing a fresh (or recycled) one if needed.
func (t *lockTable) lease(key []byte) *leaseState {
	st := t.Locks[string(key)]
	if st == nil {
		if n := len(t.free); n > 0 {
			st, t.free = t.free[n-1], t.free[:n-1]
		} else {
			st = &leaseState{}
		}
		st.key = string(key)
		t.Locks[st.key] = st
	}
	return st
}

// drop removes an idle record from the table and keeps it for reuse.
func (t *lockTable) drop(st *leaseState) {
	delete(t.Locks, st.key)
	*st = leaseState{Readers: st.Readers}
	if len(t.free) < maxFreeLeases {
		t.free = append(t.free, st)
	}
}

// expire drops leases past the clock; reports whether anything was freed.
func (t *lockTable) expire(st *leaseState) bool {
	freed := false
	if st.Writer != "" && t.Clock > st.WriterExp {
		st.Writer = ""
		freed = true
	}
	for owner, exp := range st.Readers {
		if t.Clock > exp {
			delete(st.Readers, owner)
			freed = true
		}
	}
	return freed
}

// tryGrant grants key to owner if compatible, returning the fencing token
// (0 = not granted). ttl is in clock nanoseconds.
func (t *lockTable) tryGrant(key []byte, owner string, mode Mode, ttl int64) uint64 {
	st := t.lease(key)
	t.expire(st)
	switch mode {
	case Read:
		// Shared: compatible with other readers and with a re-entrant
		// writer of the same owner.
		if st.Writer != "" && st.Writer != owner {
			return 0
		}
		if st.Readers == nil {
			st.Readers = map[string]int64{}
		}
		st.Readers[owner] = t.Clock + ttl
	case Write:
		otherReaders := len(st.Readers)
		if _, selfReads := st.Readers[owner]; selfReads {
			otherReaders--
		}
		if (st.Writer != "" && st.Writer != owner) || otherReaders > 0 {
			return 0
		}
		st.Writer = owner
		st.WriterExp = t.Clock + ttl
	default:
		return 0
	}
	t.NextToken++
	st.Token = t.NextToken
	return t.NextToken
}

// release drops owner's lease on key; reports whether waiters should wake.
func (t *lockTable) release(key []byte, owner string, mode Mode) bool {
	st := t.Locks[string(key)]
	if st == nil {
		return false // already expired and reclaimed
	}
	switch mode {
	case Write:
		if st.Writer == owner {
			st.Writer = ""
		}
	case Read:
		delete(st.Readers, owner)
	}
	if st.idle() {
		t.drop(st)
	}
	return true
}

// freeIn is how long, on the lease clock, until the leases that keep owner
// from taking key in mode have all run out (0: nothing does).
func (t *lockTable) freeIn(key []byte, owner string, mode Mode) int64 {
	st := t.Locks[string(key)]
	if st == nil {
		return 0
	}
	var exp int64
	if st.Writer != "" && st.Writer != owner {
		exp = st.WriterExp
	}
	if mode == Write {
		for o, e := range st.Readers {
			if o != owner && e > exp {
				exp = e
			}
		}
	}
	return max(exp-t.Clock, 0)
}

// sweep expires every key and reclaims empty entries, returning the keys
// that freed capacity (their waiters should wake).
func (t *lockTable) sweep() []string {
	var freed []string
	for key, st := range t.Locks {
		if t.expire(st) {
			freed = append(freed, key)
		}
		if st.idle() {
			t.drop(st)
		}
	}
	return freed
}

// Lease-table commands: the op, the leader's clock delta — so the lease
// clock advances exactly once per committed entry, in log order,
// identically on every member — the lease length, then the call's mode,
// key and owner (appendCmd, wire.go). Apply reads one in place.
const (
	opLock byte = iota + 1
	opUnlock
	opSweep
)

// proposeTimeout bounds one replicated lock operation.
const proposeTimeout = 5 * time.Second

// Server is a running lock manager.
type Server struct {
	cfg      Config
	rpc      *rpc.Server
	addr     string
	node     *rsm.Node
	base     time.Time    // monotonic anchor; all deltas are measured against it
	lastMono atomic.Int64 // monotonic reading at the last stamped delta

	mu  sync.Mutex
	tbl lockTable
	// owners interns owner names, so a lease record's Writer/Readers key
	// costs no allocation per grant: owners are the cluster's controlets.
	owners map[string]string
	// waiters are leader-local: channels cannot replicate, so blocked
	// Lock calls queue on the member that accepted them and try again
	// when a committed release/expiry frees their key.
	waiters map[string][]chan struct{}
	stopCh  chan struct{}
	stopped bool
	wg      sync.WaitGroup // the sweeper and every parked call's goroutine
}

// maxOwners bounds Server.owners; past it the table starts over (names in
// use stay alive through the lease records that hold them).
const maxOwners = 1024

// LockArgs requests a lease. LockArgs, LockReply and UnlockArgs travel as
// rpc.Wire messages (wire.go); the server takes them in no other form.
type LockArgs struct {
	Key   string
	Owner string
	Mode  Mode
	// TTLMs bounds the lease; 0 uses the server default.
	TTLMs int
	// WaitMs bounds how long to queue for a contended lock; 0 means
	// fail immediately.
	WaitMs int
}

// LockReply carries the fencing token of the granted lease.
type LockReply struct {
	Token uint64
}

// UnlockArgs releases a lease.
type UnlockArgs struct {
	Key   string
	Owner string
	Mode  Mode
}

// ErrLockHeld is the error message returned when a lock cannot be granted
// within the wait budget.
const ErrLockHeld = "dlm: lock held"

// Serve starts a lock server.
func Serve(cfg Config) (*Server, error) {
	if cfg.Network == nil {
		return nil, errors.New("dlm: Network is required")
	}
	if cfg.DefaultTTL <= 0 {
		cfg.DefaultTTL = 5 * time.Second
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.DefaultTTL / 4
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:     cfg,
		rpc:     rpc.NewServer(),
		base:    time.Now(),
		tbl:     newLockTable(),
		owners:  map[string]string{},
		waiters: map[string][]chan struct{}{},
		stopCh:  make(chan struct{}),
	}
	s.rpc.Name = "dlm"
	// Ordered: an Unlock reaches the lease table's log before any Lock the
	// same connection sent after it, which is what lets the client release
	// without waiting for an answer.
	s.rpc.HandleOrdered("Lock", s.serveLock)
	s.rpc.HandleOrdered("Unlock", s.serveUnlock)
	l, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.addr = l.Addr()
	if s.node, err = rsm.StartGroup(cfg.Replication, s.addr, s.rpc, cfg.Network, dlmSM{s}, s.onLeaderChange, cfg.Logf); err != nil {
		l.Close()
		return nil, err
	}
	s.rpc.ServeListener(l) // calls find the node in place
	s.wg.Add(1)
	go s.sweeper()
	return s, nil
}

// Addr returns the server's RPC address.
func (s *Server) Addr() string { return s.addr }

// IsLeader reports whether this member currently grants leases.
func (s *Server) IsLeader() bool { return s.node.IsLeader() }

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	close(s.stopCh)
	s.mu.Unlock()
	s.node.Close()
	// The rpc server first: once its readers are gone nothing parks a new
	// call, so the wait below covers every goroutine there will ever be.
	err := s.rpc.Close()
	s.wg.Wait()
	return err
}

// mono reads the process monotonic clock as nanoseconds since Serve.
func (s *Server) mono() int64 { return int64(time.Since(s.base)) }

// takeDelta stamps the monotonic advance since the last stamped command,
// capped at 2×SweepInterval. The cap bounds how far any single command can
// move the lease clock: a member that spent an hour as a follower (or a
// process resumed from a long suspend) cannot jump the clock by its idle
// time and mass-expire leases — under-advancing only stretches leases,
// which is the safe direction.
func (s *Server) takeDelta() int64 {
	now := s.mono()
	d := now - s.lastMono.Swap(now)
	return min(max(d, 0), 2*int64(s.cfg.SweepInterval))
}

// onLeaderChange resets the delta baseline when this member takes over:
// the follower's lastMono is stale by the whole previous reign, and
// without the reset (plus the takeDelta cap as a backstop) the first
// stamped command would advance the lease clock by that entire gap.
func (s *Server) onLeaderChange(term uint64, isLeader bool) {
	s.lastMono.Store(s.mono())
	if isLeader {
		s.cfg.Logf("dlm: leading lease table at term %d", term)
	}
}

// submit puts op for l in the lease table's log, a Lock or sweep stamped
// with the lease clock's advance (a release needs none: the next stamp
// covers its time). Only the leader can; elsewhere it fails with the
// rsm.NotLeaderError redirect clients follow. Called on a connection's
// reader, it makes log order that connection's arrival order. The command
// is built in the call's reply buffer, which Submit copies if it keeps it.
func (s *Server) submit(op byte, l *lockCall) (rsm.Proposal, error) {
	var delta int64
	if op != opUnlock {
		delta = s.takeDelta()
	}
	var buf []byte
	if l.c != nil {
		buf = l.c.Scratch(cmdHeader + len(l.key) + len(l.owner))
	}
	return s.node.Submit(appendCmd(buf, op, delta, l))
}

// applyLocked runs one command through the lease table, on every member,
// returning the grant of a Lock that won one (nil otherwise). key and owner
// are only read. Caller holds s.mu.
func (s *Server) applyLocked(op byte, delta, ttl int64, mode Mode, key, owner []byte) any {
	s.tbl.advance(delta)
	switch op {
	case opLock:
		if tok := s.tbl.tryGrant(key, s.internLocked(owner), mode, ttl); tok != 0 {
			return &LockReply{Token: tok}
		}
	case opUnlock:
		if s.tbl.release(key, s.internLocked(owner), mode) {
			s.wakeLocked(key)
		}
	case opSweep:
		for _, key := range s.tbl.sweep() {
			s.wakeLocked([]byte(key))
		}
	}
	return nil
}

// internLocked returns the one string kept for this owner name.
func (s *Server) internLocked(owner []byte) string {
	if o, ok := s.owners[string(owner)]; ok {
		return o
	}
	if len(s.owners) >= maxOwners {
		clear(s.owners)
	}
	o := string(owner)
	s.owners[o] = o
	return o
}

// dlmSM adapts the lease table to the rsm.StateMachine interface. Apply
// runs on every member with the RSM internals locked, so it only touches
// s.mu-guarded state and never calls back into the RSM node.
type dlmSM struct{ s *Server }

func (m dlmSM) Apply(index uint64, cmd []byte) any {
	op, delta, ttl, mode, key, owner, err := parseCmd(cmd)
	if err != nil {
		m.s.cfg.Logf("dlm: rsm entry %d undecodable: %v", index, err)
		return nil
	}
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	return m.s.applyLocked(op, delta, ttl, mode, key, owner)
}

func (m dlmSM) Snapshot() []byte {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	return m.s.tbl.appendWire(nil)
}

func (m dlmSM) Restore(data []byte) {
	tbl, err := parseLockTable(data)
	if err != nil {
		m.s.cfg.Logf("dlm: rsm restore: %v", err)
		return
	}
	m.s.mu.Lock()
	m.s.tbl = tbl
	m.s.mu.Unlock()
}

// wakeLocked wakes the calls parked on key; each tries again.
func (s *Server) wakeLocked(key []byte) {
	ws, ok := s.waiters[string(key)]
	if !ok {
		return
	}
	for _, ch := range ws {
		close(ch)
	}
	delete(s.waiters, string(key))
}

// sweeper periodically advances the lease clock and reclaims expired
// leases. Only the leader sweeps — its proposals are what keep the
// replicated clock moving, which is exactly why leases stretch rather than
// expire while the group has no leader.
func (s *Server) sweeper() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-ticker.C:
			if s.node.IsLeader() {
				// A leadership lost mid-propose drops it; the new leader sweeps.
				_, _ = s.submit(opSweep, &lockCall{})
			}
		}
	}
}

// lockCall is a Lock (or, with the first three fields only, an Unlock)
// request as the server works on it. key and owner alias the request
// frame, which stays valid until the call is answered. A Lock that cannot
// be granted at once leaves the connection's reader with this struct and
// waits on a goroutine of its own.
type lockCall struct {
	key, owner []byte
	mode       Mode
	ttl        int64         // lease length, clock nanoseconds
	wait       time.Duration // how long the caller is willing to queue
	c          *rpc.Call
	deadline   time.Time     // end of the wait budget, set at the first miss
	ch         chan struct{} // closed when the key frees up; see parkLocked
	free       time.Time     // when the leases in the way run out, as of the last miss
}

// decode parses and validates the arguments of c in place.
func (s *Server) decode(c *rpc.Call, lock bool) (lockCall, error) {
	payload, err := c.WireArgs()
	if err != nil {
		return lockCall{}, err
	}
	q, err := parseCall(payload, lock)
	if err != nil {
		return lockCall{}, fmt.Errorf("dlm: bad args: %w", err)
	}
	if lock && (len(q.key) == 0 || len(q.owner) == 0) {
		return lockCall{}, errors.New("dlm: key and owner required")
	}
	if q.mode != Read && q.mode != Write {
		return lockCall{}, fmt.Errorf("dlm: bad mode %q", q.mode)
	}
	call := lockCall{key: q.key, owner: q.owner, mode: q.mode, c: c}
	if lock {
		ttl := time.Duration(q.ttlMs) * time.Millisecond
		if ttl <= 0 {
			ttl = s.cfg.DefaultTTL
		}
		call.ttl = int64(ttl)
		call.wait = time.Duration(q.waitMs) * time.Millisecond
	}
	return call, nil
}

func (l *lockCall) reply(rep *LockReply, err error) {
	if err != nil {
		l.c.Reply(nil, err)
		return
	}
	l.c.Reply(rep, nil)
}

// serveLock runs on the connection's reader, so the attempt is in the log
// in arrival order before it returns. A group of one has decided the
// attempt by then: a grant — one clock read, the table's own copy of the
// key and the reply the only allocations — or a refusal is answered before
// the next frame is read. A call that parks, and an attempt still
// committing in a larger group, finish on a goroutine of their own.
func (s *Server) serveLock(c *rpc.Call) {
	l, err := s.decode(c, true)
	if err != nil {
		c.Reply(nil, err)
		return
	}
	p, err := s.submit(opLock, &l)
	var rep *LockReply
	if err == nil && p.Applied() {
		rep, err = s.settle(&l, p)
	}
	if rep != nil || err != nil {
		l.reply(rep, err)
		return
	}
	parked := new(lockCall)
	*parked = l
	s.wg.Add(1)
	go s.waitLock(parked, p)
}

// settle collects an attempt's outcome: its grant, or on a miss the call
// parked for a wake on its key (nil, nil), or ErrLockHeld once out of
// wait budget.
func (s *Server) settle(l *lockCall, p rsm.Proposal) (*LockReply, error) {
	res, err := p.Wait(proposeTimeout)
	if rep, ok := res.(*LockReply); ok || err != nil {
		return rep, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return nil, s.parkLocked(l)
}

// parkLocked queues l for a wake on its key, or, when nothing is in its way
// any more, closes l.ch so that it tries again at once: a release applied
// between the attempt's miss and this park has no wake to send, but it has
// left the table. The miss and the park thus act as one step in every
// group size, though they are two critical sections. Caller holds s.mu.
func (s *Server) parkLocked(l *lockCall) error {
	now := time.Now()
	if l.deadline.IsZero() {
		l.deadline = now.Add(l.wait)
	}
	if !now.Before(l.deadline) {
		return errors.New(ErrLockHeld)
	}
	// A lease clock nanosecond is never shorter than a real one, so the
	// holder's lease is out by then; one more millisecond puts the retry
	// past the strict expiry comparison.
	in := s.tbl.freeIn(l.key, string(l.owner), l.mode)
	l.free = now.Add(time.Duration(in) + time.Millisecond)
	l.ch = make(chan struct{})
	if in == 0 {
		close(l.ch)
		return nil
	}
	s.waiters[string(l.key)] = append(s.waiters[string(l.key)], l.ch)
	return nil
}

// waitLock sees a Lock that left the reader through to its answer: it
// settles the attempt still committing, if any, then sleeps until the key
// frees up and tries again, until granted, out of budget, or shut down. A
// dead holder's lease is so taken over within a millisecond of its expiry.
func (s *Server) waitLock(l *lockCall, p rsm.Proposal) {
	defer s.wg.Done()
	var rep *LockReply
	var err error
	if !p.Applied() {
		rep, err = s.settle(l, p)
	}
	for rep == nil && err == nil {
		if err = s.sleep(l); err == nil {
			if p, err = s.submit(opLock, l); err == nil {
				rep, err = s.settle(l, p)
			}
		}
	}
	l.reply(rep, err)
}

// sleep waits for l's key to free up — released (a wake), or the leases in
// its way run out — or for a sweep interval, since a leadership move is
// only observed by trying again.
func (s *Server) sleep(l *lockCall) error {
	timer := time.NewTimer(max(min(time.Until(l.deadline), time.Until(l.free), s.cfg.SweepInterval), 0))
	defer timer.Stop()
	select {
	case <-l.ch:
		return nil
	case <-timer.C:
		s.dropWaiter(l)
		return nil
	case <-s.stopCh:
		s.dropWaiter(l)
		return errors.New("dlm: shutting down")
	}
}

// dropWaiter removes a timed-out waiter so abandoned channels do not pile
// up on a long-held key.
func (s *Server) dropWaiter(l *lockCall) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := string(l.key)
	ws := s.waiters[key]
	for i, w := range ws {
		if w == l.ch {
			s.waiters[key] = append(ws[:i:i], ws[i+1:]...)
			break
		}
	}
	if len(s.waiters[key]) == 0 {
		delete(s.waiters, key)
	}
}

// serveUnlock runs on the connection's reader, so the release is in the
// lease table's log before the next frame of this connection is looked at.
// A one-way Unlock (the client's normal release) has no answer to carry a
// failure: what a deposed leader or a bad frame drops is logged here, and
// the lease runs out by its TTL.
func (s *Server) serveUnlock(c *rpc.Call) {
	l, err := s.decode(c, false)
	var p rsm.Proposal
	if err == nil {
		p, err = s.submit(opUnlock, &l)
	}
	if err != nil && c.OneWay() {
		s.cfg.Logf("dlm: one-way unlock dropped: %v (the lease expires by its TTL)", err)
	}
	if err != nil || c.OneWay() || p.Applied() {
		c.Reply(nil, err)
		return
	}
	// An awaited release (the client's fallback) hears about the commit.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_, err := p.Wait(proposeTimeout)
		c.Reply(nil, err)
	}()
}

// Leases returns the exclusive holder of every key whose write lease has
// not run out on this member's table — what an operator (or a test) asks to
// see which controlets hold what.
func (s *Server) Leases() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]string{}
	for key, st := range s.tbl.Locks {
		if st.Writer != "" && s.tbl.Clock <= st.WriterExp {
			out[key] = st.Writer
		}
	}
	return out
}

// Client is the lock service's typed method set over an rsm.Client, which
// finds and follows the lease table's leader, so callers survive its
// failovers transparently.
type Client struct {
	rc    *rsm.Client
	owner string
}

// DialClient connects with the given owner identity. addr may be a single
// address or a comma-separated list of lease-table members.
func DialClient(network transport.Network, addr, owner string) (*Client, error) {
	rc, err := rsm.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &Client{rc: rc, owner: owner}, nil
}

// Lock acquires key in the given mode, waiting up to wait; it returns the
// fencing token. The RPC deadline stretches past wait, since the server
// legitimately holds the call open that long.
func (c *Client) Lock(key string, mode Mode, ttl, wait time.Duration) (uint64, error) {
	return c.LockTraced(0, key, mode, ttl, wait)
}

// LockTraced is Lock carrying a trace ID, so the DLM hop shows up as a span
// of the sampled request that needed the lease.
func (c *Client) LockTraced(tid uint64, key string, mode Mode, ttl, wait time.Duration) (uint64, error) {
	var reply LockReply
	err := c.rc.Call(tid, "Lock", &LockArgs{
		Key:    key,
		Owner:  c.owner,
		Mode:   mode,
		TTLMs:  int(ttl / time.Millisecond),
		WaitMs: int(wait / time.Millisecond),
	}, &reply, wait+rpc.DefaultCallTimeout)
	if err != nil {
		return 0, err
	}
	return reply.Token, nil
}

// Unlock releases key in the given mode. On the connection this client's
// grants arrive on, the release is a one-way frame and Unlock returns once
// it is written: the server takes it up before any Lock this client sends
// afterwards, but another client may still find the key held for the few
// microseconds the frame is in flight — it queues, as for any held key, if
// its Lock carries a wait. The frame is never sent twice (a second copy
// could release a newer grant of the same owner); one that a deposed leader
// drops is lost, and the lease runs out by its TTL. When that connection
// is gone — write error, server restart, rotation pending — the release is
// an awaited call that finds the leader, the only kind that can work then.
func (c *Client) Unlock(key string, mode Mode) error {
	args := &UnlockArgs{Key: key, Owner: c.owner, Mode: mode}
	if c.rc.Send("Unlock", args) == nil {
		return nil
	}
	return c.rc.Call(0, "Unlock", args, nil, rpc.DefaultCallTimeout)
}

// Close tears down the connection (held leases expire via TTL); a lock wait
// in flight fails with rsm.ErrClientClosed.
func (c *Client) Close() error { return c.rc.Close() }
