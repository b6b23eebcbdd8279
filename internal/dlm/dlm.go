// Package dlm is a lease-based distributed lock manager — the
// reproduction's stand-in for the paper's Redlock/ZooKeeper lock service,
// used by the AA+SC controlet. Locks are per-key, shared (read) or
// exclusive (write), carry a TTL so a crashed controlet cannot wedge the
// cluster (the paper's "locks are released after a configurable period"),
// and return monotonically increasing fencing tokens.
//
// Lease expiry is tracked on a monotonic clock that never reads wall time:
// the table keeps a nanosecond counter that only moves forward, advanced by
// bounded deltas measured with the runtime's monotonic clock. Wall-clock
// jumps (NTP steps, VM suspends) therefore cannot expire a lease early. In
// replicated mode the counter is itself replicated state — only the leader
// stamps advances, so the clock pauses across a failover and a lease held
// when the old leader died stretches rather than double-granting.
package dlm

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
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
	// Replication, when set, runs the lease table on a replicated state
	// machine: every member serves Lock/Unlock on its Peers[ID] address,
	// but only the leader grants; elsewhere calls fail with the
	// rsm.NotLeaderError redirect that clients follow.
	Replication *rsm.GroupConfig
	Logf        func(format string, args ...any)
}

// leaseState is one key's lease record. Expiries are offsets on the
// table's monotonic clock (nanoseconds since the table was created), never
// wall-clock readings. The JSON form is the replicated snapshot encoding.
type leaseState struct {
	Writer    string           `json:"w,omitempty"`  // exclusive owner, "" if none
	WriterExp int64            `json:"we,omitempty"` // writer lease expiry (clock nanos)
	Readers   map[string]int64 `json:"r,omitempty"`  // shared holders → expiry; nil until the first one
	Token     uint64           `json:"t,omitempty"`  // fencing token of newest grant

	// key is the string this record is filed under in lockTable.Locks, kept
	// so that dropping the record does not have to build it again.
	key string
}

func (st *leaseState) idle() bool { return st.Writer == "" && len(st.Readers) == 0 }

// lockTable is the deterministic core of the lock manager: a pure lease
// table on a monotonic nanosecond clock. It never reads wall time and has
// no randomness, so replicas applying the same command stream converge.
type lockTable struct {
	Locks     map[string]*leaseState `json:"locks"`
	NextToken uint64                 `json:"next_token"`
	// Clock is the lease clock in nanoseconds. It only moves forward, by
	// the deltas carried in commands; it is never compared to wall time.
	Clock int64 `json:"clock"`

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

// Replicated command stream. Every command carries a leader-stamped clock
// delta so the lease clock advances exactly once per committed entry, in
// log order, identically on every member.
const (
	opLock   = "lock"
	opUnlock = "unlock"
	opSweep  = "sweep"
)

type dlmCmd struct {
	Op    string `json:"op"`
	Key   string `json:"key,omitempty"`
	Owner string `json:"owner,omitempty"`
	Mode  Mode   `json:"mode,omitempty"`
	TTL   int64  `json:"ttl,omitempty"`   // lease length, nanoseconds
	Delta int64  `json:"delta,omitempty"` // leader-observed monotonic advance
}

// proposeTimeout bounds one replicated lock operation.
const proposeTimeout = 5 * time.Second

// Server is a running lock manager.
type Server struct {
	cfg  Config
	rpc  *rpc.Server
	addr string
	node *rsm.Node // nil in standalone mode
	base time.Time // monotonic anchor; all deltas are measured against it

	mu       sync.Mutex
	tbl      lockTable
	lastMono int64 // monotonic reading at the last stamped delta
	// owners interns owner names, so a lease record's Writer/Readers key
	// costs no allocation per grant: owners are the cluster's controlets.
	owners map[string]string
	// waiters are leader-local: channels cannot replicate, so blocked
	// Lock calls queue on the member that accepted them and re-propose
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
	// Ordered: an Unlock reaches the lease table (or the replicated log)
	// before any Lock the same connection sent after it, which is what lets
	// the client release without waiting for an answer.
	s.rpc.HandleOrdered("Lock", s.serveLock)
	s.rpc.HandleOrdered("Unlock", s.serveUnlock)
	addr, err := s.rpc.Serve(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.addr = addr
	if rc := cfg.Replication; rc != nil {
		node, err := rsm.StartGroup(*rc, s.rpc, cfg.Network, dlmSM{s}, s.onLeaderChange, cfg.Logf)
		if err != nil {
			s.rpc.Close()
			return nil, err
		}
		s.node = node
	}
	s.wg.Add(1)
	go s.sweeper()
	return s, nil
}

// Addr returns the server's RPC address.
func (s *Server) Addr() string { return s.addr }

// IsLeader reports whether this member currently grants leases (always
// true in standalone mode).
func (s *Server) IsLeader() bool {
	return s.node == nil || s.node.IsLeader()
}

// RSMStatus reports the replication group's state (nil in standalone mode).
func (s *Server) RSMStatus() *rsm.Status {
	if s.node == nil {
		return nil
	}
	st := s.node.Status()
	return &st
}

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
	if s.node != nil {
		s.node.Close()
	}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltaLocked()
}

func (s *Server) deltaLocked() int64 {
	now := s.mono()
	d := now - s.lastMono
	s.lastMono = now
	if d < 0 {
		d = 0
	}
	if cap := 2 * int64(s.cfg.SweepInterval); d > cap {
		d = cap
	}
	return d
}

// onLeaderChange resets the delta baseline when this member takes over:
// the follower's lastMono is stale by the whole previous reign, and
// without the reset (plus the takeDelta cap as a backstop) the first
// stamped command would advance the lease clock by that entire gap.
func (s *Server) onLeaderChange(term uint64, isLeader bool) {
	s.mu.Lock()
	s.lastMono = s.mono()
	s.mu.Unlock()
	if isLeader {
		s.cfg.Logf("dlm: leading lease table at term %d", term)
	}
}

// submit puts cmd in the replicated log without waiting for it to commit
// (only the leader can; elsewhere it fails with the rsm.NotLeaderError
// redirect clients follow). Called on a connection's reader goroutine, it
// makes log order that connection's arrival order.
func (s *Server) submit(cmd dlmCmd) (rsm.Proposal, error) {
	b, err := json.Marshal(cmd)
	if err != nil {
		return rsm.Proposal{}, err
	}
	return s.node.Submit(b)
}

// committed waits for a submitted command to apply and returns the fencing
// token of a lock command (0 = not granted).
func committed(p rsm.Proposal) (uint64, error) {
	res, err := p.Wait(proposeTimeout)
	tok, _ := res.(uint64)
	return tok, err
}

// applyCmd runs cmd through the lease table — directly in standalone mode,
// through the replicated log otherwise — returning the fencing token for
// lock commands (0 = not granted).
func (s *Server) applyCmd(cmd dlmCmd) (uint64, error) {
	if s.node == nil {
		s.mu.Lock()
		tok := s.applyLocked(cmd.Op, []byte(cmd.Key), []byte(cmd.Owner), cmd.Mode, cmd.TTL, cmd.Delta)
		s.mu.Unlock()
		return tok, nil
	}
	p, err := s.submit(cmd)
	if err != nil {
		return 0, err
	}
	return committed(p)
}

// applyLocked is the deterministic apply body shared by the standalone
// path and dlmSM.Apply, so the two modes cannot drift. key and owner are
// only read (they may alias an rpc frame). Caller holds s.mu.
func (s *Server) applyLocked(op string, key, owner []byte, mode Mode, ttl, delta int64) uint64 {
	s.tbl.advance(delta)
	switch op {
	case opLock:
		return s.tbl.tryGrant(key, s.internLocked(owner), mode, ttl)
	case opUnlock:
		if s.tbl.release(key, s.internLocked(owner), mode) {
			s.wakeLocked(key)
		}
	case opSweep:
		for _, key := range s.tbl.sweep() {
			s.wakeLocked([]byte(key))
		}
	}
	return 0
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
	var op dlmCmd
	if err := json.Unmarshal(cmd, &op); err != nil {
		m.s.cfg.Logf("dlm: rsm entry %d undecodable: %v", index, err)
		return uint64(0)
	}
	m.s.mu.Lock()
	tok := m.s.applyLocked(op.Op, []byte(op.Key), []byte(op.Owner), op.Mode, op.TTL, op.Delta)
	m.s.mu.Unlock()
	return tok
}

func (m dlmSM) Snapshot() []byte {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	b, err := json.Marshal(m.s.tbl)
	if err != nil {
		m.s.cfg.Logf("dlm: rsm snapshot: %v", err)
		return nil
	}
	return b
}

func (m dlmSM) Restore(data []byte) {
	tbl := newLockTable()
	if len(data) > 0 {
		if err := json.Unmarshal(data, &tbl); err != nil {
			m.s.cfg.Logf("dlm: rsm restore: %v", err)
			return
		}
		if tbl.Locks == nil {
			tbl.Locks = map[string]*leaseState{}
		}
		for key, st := range tbl.Locks {
			st.key = key
		}
	}
	m.s.mu.Lock()
	m.s.tbl = tbl
	m.s.mu.Unlock()
}

// wakeLocked wakes the calls parked on key; each retries its grant.
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
// leases. In replicated mode only the leader sweeps — its proposals are
// what keep the replicated clock moving, which is exactly why leases
// stretch rather than expire while the group has no leader.
func (s *Server) sweeper() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-ticker.C:
			if s.node != nil && !s.node.IsLeader() {
				continue
			}
			if _, err := s.applyCmd(dlmCmd{Op: opSweep, Delta: s.takeDelta()}); err != nil {
				// Lost leadership mid-propose; the new leader sweeps.
				continue
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

// cmd is the call as a replicated command.
func (l *lockCall) cmd(op string, delta int64) dlmCmd {
	return dlmCmd{Op: op, Key: string(l.key), Owner: string(l.owner), Mode: l.mode, TTL: l.ttl, Delta: delta}
}

func (l *lockCall) reply(tok uint64, err error) {
	if err != nil {
		l.c.Reply(nil, err)
		return
	}
	l.c.Reply(&LockReply{Token: tok}, nil)
}

// serveLock runs on the connection's reader. Standalone, an uncontended
// grant is one critical section — one clock read, the table's own copy of
// the key the only allocation — and the answer is written before the next
// frame is read. A miss with a wait budget, and every replicated Lock
// (whose command is in the log, in arrival order, before this returns),
// finishes on its own goroutine.
func (s *Server) serveLock(c *rpc.Call) {
	l, err := s.decode(c, true)
	if err != nil {
		c.Reply(nil, err)
		return
	}
	var tok uint64
	var first rsm.Proposal
	if s.node == nil {
		tok, err = s.tryLock(&l)
	} else {
		first, err = s.submit(l.cmd(opLock, s.takeDelta()))
	}
	if tok != 0 || err != nil {
		l.reply(tok, err)
		return
	}
	parked := new(lockCall)
	*parked = l
	s.wg.Add(1)
	go s.waitLock(parked, first)
}

// tryLock is one grant attempt. A miss parks the call for a wake on its
// key (see parkLocked) or, out of wait budget, fails it with ErrLockHeld.
func (s *Server) tryLock(l *lockCall) (uint64, error) {
	if s.node != nil {
		tok, err := s.applyCmd(l.cmd(opLock, s.takeDelta()))
		if tok != 0 || err != nil {
			return tok, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return 0, s.parkLocked(l)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if tok := s.applyLocked(opLock, l.key, l.owner, l.mode, l.ttl, s.deltaLocked()); tok != 0 {
		return tok, nil
	}
	return 0, s.parkLocked(l)
}

// parkLocked queues l for a wake on its key. Standalone this is the same
// critical section as the failed attempt, so no release can slip between
// the two; replicated, a release that commits in between is caught by the
// chunked wait. Caller holds s.mu.
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
	l.free = now.Add(time.Duration(s.tbl.freeIn(l.key, string(l.owner), l.mode)) + time.Millisecond)
	l.ch = make(chan struct{})
	s.waiters[string(l.key)] = append(s.waiters[string(l.key)], l.ch)
	return nil
}

// waitLock sees a Lock that left the reader through to its answer: it
// collects the first replicated attempt, then sleeps until the key frees
// up — released (a wake), or the leases in its way expired — or a sweep
// interval passes (leadership moves are only observed by trying again),
// and retries, until granted, out of budget, or shut down. A dead holder's
// lease is so taken over within a millisecond of its expiry.
func (s *Server) waitLock(l *lockCall, first rsm.Proposal) {
	defer s.wg.Done()
	var tok uint64
	var err error
	if s.node != nil {
		if tok, err = committed(first); tok == 0 && err == nil {
			s.mu.Lock()
			err = s.parkLocked(l)
			s.mu.Unlock()
		}
	}
	if tok == 0 && err == nil {
		tok, err = s.sleepAndRetry(l)
	}
	l.reply(tok, err)
}

func (s *Server) sleepAndRetry(l *lockCall) (uint64, error) {
	chunk := func() time.Duration {
		return max(min(time.Until(l.deadline), time.Until(l.free), s.cfg.SweepInterval), 0)
	}
	timer := time.NewTimer(chunk())
	defer timer.Stop()
	for {
		select {
		case <-l.ch:
			if !timer.Stop() {
				select { // a tick that raced the wake
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
			s.dropWaiter(l)
		case <-s.stopCh:
			s.dropWaiter(l)
			return 0, errors.New("dlm: shutting down")
		}
		if tok, err := s.tryLock(l); tok != 0 || err != nil {
			return tok, err
		}
		timer.Reset(chunk())
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
// lease table — or, replicated, in the log — before the next frame of this
// connection is looked at. A one-way Unlock (the client's normal release)
// has no answer to carry a failure: what a deposed leader or a bad frame
// drops is logged here, and the lease runs out by its TTL.
func (s *Server) serveUnlock(c *rpc.Call) {
	l, err := s.decode(c, false)
	var p rsm.Proposal
	switch {
	case err != nil:
	case s.node == nil:
		s.mu.Lock()
		s.applyLocked(opUnlock, l.key, l.owner, l.mode, 0, s.deltaLocked())
		s.mu.Unlock()
	default:
		p, err = s.submit(l.cmd(opUnlock, s.takeDelta()))
	}
	if err != nil && c.OneWay() {
		s.cfg.Logf("dlm: one-way unlock dropped: %v (the lease expires by its TTL)", err)
	}
	if err != nil || s.node == nil || c.OneWay() {
		c.Reply(nil, err)
		return
	}
	// An awaited release (the client's fallback) hears about the commit.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_, err := committed(p)
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
