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
	"io"
	"strings"
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
	Readers   map[string]int64 `json:"r,omitempty"`  // shared holders → expiry
	Token     uint64           `json:"t,omitempty"`  // fencing token of newest grant
}

// lockTable is the deterministic core of the lock manager: a pure lease
// table on a monotonic nanosecond clock. It never reads wall time and has
// no randomness, so replicas applying the same command stream converge.
type lockTable struct {
	Locks     map[string]*leaseState `json:"locks"`
	NextToken uint64                 `json:"next_token"`
	// Clock is the lease clock in nanoseconds. It only moves forward, by
	// the deltas carried in commands; it is never compared to wall time.
	Clock int64 `json:"clock"`
}

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
func (t *lockTable) tryGrant(key, owner string, mode Mode, ttl int64) uint64 {
	st := t.Locks[key]
	if st == nil {
		st = &leaseState{Readers: map[string]int64{}}
		t.Locks[key] = st
	}
	t.expire(st)
	switch mode {
	case Read:
		// Shared: compatible with other readers and with a re-entrant
		// writer of the same owner.
		if st.Writer != "" && st.Writer != owner {
			return 0
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
func (t *lockTable) release(key, owner string, mode Mode) bool {
	st := t.Locks[key]
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
	if st.Writer == "" && len(st.Readers) == 0 {
		delete(t.Locks, key)
	}
	return true
}

// sweep expires every key and reclaims empty entries, returning the keys
// that freed capacity (their waiters should wake).
func (t *lockTable) sweep() []string {
	var freed []string
	for key, st := range t.Locks {
		if t.expire(st) {
			freed = append(freed, key)
		}
		if st.Writer == "" && len(st.Readers) == 0 {
			delete(t.Locks, key)
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
	// waiters are leader-local: channels cannot replicate, so blocked
	// Lock calls queue on the member that accepted them and re-propose
	// when a committed release/expiry frees their key.
	waiters map[string][]chan struct{}
	stopCh  chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// LockArgs requests a lease. LockArgs, LockReply and UnlockArgs travel as
// rpc.Wire messages (wire.go); the json tags serve callers that send JSON.
type LockArgs struct {
	Key   string `json:"key"`
	Owner string `json:"owner"`
	Mode  Mode   `json:"mode"`
	// TTLMs bounds the lease; 0 uses the server default.
	TTLMs int `json:"ttl_ms,omitempty"`
	// WaitMs bounds how long to queue for a contended lock; 0 means
	// fail immediately.
	WaitMs int `json:"wait_ms,omitempty"`
}

// LockReply carries the fencing token of the granted lease.
type LockReply struct {
	Token uint64 `json:"token"`
}

// UnlockArgs releases a lease.
type UnlockArgs struct {
	Key   string `json:"key"`
	Owner string `json:"owner"`
	Mode  Mode   `json:"mode"`
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
		waiters: map[string][]chan struct{}{},
		stopCh:  make(chan struct{}),
	}
	s.rpc.Name = "dlm"
	rpc.HandleFunc(s.rpc, "Lock", s.handleLock)
	rpc.HandleFunc(s.rpc, "Unlock", s.handleUnlock)
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

// leaderCheck gates grants: in replicated mode only the leader's lease
// clock is live, everyone else redirects. Callers must not hold s.mu.
func (s *Server) leaderCheck() error {
	if s.node == nil || s.node.IsLeader() {
		return nil
	}
	return s.node.NotLeaderErr()
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

// applyCmd runs cmd through the lease table — directly in standalone mode,
// through the replicated log otherwise — returning the fencing token for
// lock commands (0 = not granted).
func (s *Server) applyCmd(cmd dlmCmd) (uint64, error) {
	if s.node == nil {
		s.mu.Lock()
		tok := s.applyLocked(cmd)
		s.mu.Unlock()
		return tok, nil
	}
	b, err := json.Marshal(cmd)
	if err != nil {
		return 0, err
	}
	res, err := s.node.Propose(b, proposeTimeout)
	if err != nil {
		return 0, err
	}
	tok, _ := res.(uint64)
	return tok, nil
}

// applyLocked is the deterministic apply body shared by the standalone
// path and dlmSM.Apply, so the two modes cannot drift. Caller holds s.mu.
func (s *Server) applyLocked(cmd dlmCmd) uint64 {
	s.tbl.advance(cmd.Delta)
	switch cmd.Op {
	case opLock:
		return s.tbl.tryGrant(cmd.Key, cmd.Owner, cmd.Mode, cmd.TTL)
	case opUnlock:
		if s.tbl.release(cmd.Key, cmd.Owner, cmd.Mode) {
			s.wakeLocked(cmd.Key)
		}
	case opSweep:
		for _, key := range s.tbl.sweep() {
			s.wakeLocked(key)
		}
	}
	return 0
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
	tok := m.s.applyLocked(op)
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
	}
	m.s.mu.Lock()
	m.s.tbl = tbl
	m.s.mu.Unlock()
}

func (s *Server) wakeLocked(key string) {
	for _, ch := range s.waiters[key] {
		close(ch)
	}
	delete(s.waiters, key)
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

func (s *Server) handleLock(args LockArgs) (LockReply, error) {
	if args.Key == "" || args.Owner == "" {
		return LockReply{}, errors.New("dlm: key and owner required")
	}
	if args.Mode != Read && args.Mode != Write {
		return LockReply{}, fmt.Errorf("dlm: bad mode %q", args.Mode)
	}
	ttl := time.Duration(args.TTLMs) * time.Millisecond
	if ttl <= 0 {
		ttl = s.cfg.DefaultTTL
	}
	var deadline time.Time
	if args.WaitMs > 0 {
		deadline = time.Now().Add(time.Duration(args.WaitMs) * time.Millisecond)
	}
	for {
		if err := s.leaderCheck(); err != nil {
			return LockReply{}, err
		}
		tok, err := s.applyCmd(dlmCmd{
			Op:    opLock,
			Key:   args.Key,
			Owner: args.Owner,
			Mode:  args.Mode,
			TTL:   int64(ttl),
			Delta: s.takeDelta(),
		})
		if err != nil {
			return LockReply{}, err
		}
		if tok != 0 {
			return LockReply{Token: tok}, nil
		}
		if deadline.IsZero() || !time.Now().Before(deadline) {
			return LockReply{}, errors.New(ErrLockHeld)
		}
		ch := make(chan struct{})
		s.mu.Lock()
		s.waiters[args.Key] = append(s.waiters[args.Key], ch)
		s.mu.Unlock()
		// Chunk the wait at a sweep interval: wakes cover releases, but
		// expiry timing and leadership moves are only observed by
		// re-proposing.
		wait := time.Until(deadline)
		if wait > s.cfg.SweepInterval {
			wait = s.cfg.SweepInterval
		}
		select {
		case <-ch:
		case <-time.After(wait):
			s.dropWaiter(args.Key, ch)
		case <-s.stopCh:
			s.dropWaiter(args.Key, ch)
			return LockReply{}, errors.New("dlm: shutting down")
		}
	}
}

// dropWaiter removes a timed-out waiter so abandoned channels do not pile
// up on a long-held key.
func (s *Server) dropWaiter(key string, ch chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.waiters[key]
	for i, w := range ws {
		if w == ch {
			s.waiters[key] = append(ws[:i:i], ws[i+1:]...)
			break
		}
	}
	if len(s.waiters[key]) == 0 {
		delete(s.waiters, key)
	}
}

func (s *Server) handleUnlock(args UnlockArgs) (struct{}, error) {
	if args.Mode != Read && args.Mode != Write {
		return struct{}{}, fmt.Errorf("dlm: bad mode %q", args.Mode)
	}
	if err := s.leaderCheck(); err != nil {
		return struct{}{}, err
	}
	_, err := s.applyCmd(dlmCmd{
		Op:    opUnlock,
		Key:   args.Key,
		Owner: args.Owner,
		Mode:  args.Mode,
		Delta: s.takeDelta(),
	})
	return struct{}{}, err
}

// Client is a typed connection to the lock service. It accepts a
// comma-separated address list and rotates on dial failure, connection
// errors, and NotLeader redirects, so callers survive lease-table
// failovers transparently.
type Client struct {
	network transport.Network
	owner   string

	mu       sync.Mutex
	addrs    []string
	cur      int
	redirect string // one-shot leader hint outside addrs
	conn     *rpc.Client
	closed   bool
}

// ErrClientClosed fails calls on a closed client, so Close aborts an
// in-flight lock wait instead of the call re-dialing and waiting again.
var ErrClientClosed = errors.New("dlm: client closed")

// DialClient connects with the given owner identity. addr may be a single
// address or a comma-separated list of lease-table members.
func DialClient(network transport.Network, addr, owner string) (*Client, error) {
	addrs := splitAddrs(addr)
	if len(addrs) == 0 {
		return nil, errors.New("dlm: no addresses")
	}
	c := &Client{network: network, owner: owner, addrs: addrs}
	for range addrs {
		if _, err := c.connect(); err == nil {
			return c, nil
		}
		c.mu.Lock()
		c.cur = (c.cur + 1) % len(c.addrs)
		c.mu.Unlock()
	}
	return nil, fmt.Errorf("dlm: no reachable server in %v", addrs)
}

func splitAddrs(addr string) []string {
	var out []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// connect returns the live connection, dialing the current target if
// needed. The dial happens outside the lock; a racing winner is reused.
func (c *Client) connect() (*rpc.Client, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if c.conn != nil {
		conn := c.conn
		c.mu.Unlock()
		return conn, nil
	}
	target := c.addrs[c.cur]
	if c.redirect != "" {
		target = c.redirect
		c.redirect = ""
	}
	c.mu.Unlock()
	conn, err := rpc.DialClient(c.network, target)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, ErrClientClosed
	}
	if c.conn != nil {
		existing := c.conn
		c.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	c.conn = conn
	c.mu.Unlock()
	return conn, nil
}

func (c *Client) drop(conn *rpc.Client) {
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.mu.Unlock()
	conn.Close()
}

// rotate advances to the next configured address, or jumps straight to a
// NotLeader hint when the redirect names a known (or dialable) member.
func (c *Client) rotate(hint string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hint != "" {
		for i, a := range c.addrs {
			if a == hint {
				c.cur = i
				return
			}
		}
		c.redirect = hint
		return
	}
	c.cur = (c.cur + 1) % len(c.addrs)
}

func isConnErr(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, transport.ErrClosed) ||
		strings.Contains(err.Error(), "rpc: connection failed")
}

// call runs one RPC with rotation: NotLeader redirects re-target, dead
// connections rotate, and application errors (including ErrLockHeld and
// call timeouts) return immediately — the call may have executed.
func (c *Client) call(tid uint64, method string, args, reply any, timeout time.Duration) error {
	attempts := 3 * len(c.addrs)
	if attempts < 4 {
		attempts = 4
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(time.Duration(i) * 10 * time.Millisecond)
		}
		var conn *rpc.Client
		conn, err = c.connect()
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return err
			}
			c.rotate("")
			continue
		}
		err = conn.CallTimeoutTraced(tid, method, args, reply, timeout)
		switch {
		case err == nil:
			return nil
		case rsm.IsNotLeader(err):
			c.drop(conn)
			c.rotate(rsm.LeaderHint(err))
		case isConnErr(err):
			c.drop(conn)
			c.rotate("")
		case errors.Is(err, rpc.ErrCallTimeout):
			// Silent member (blackholed or wedged): return the ambiguity,
			// but rotate first so the next call tries someone else.
			c.drop(conn)
			c.rotate("")
			return err
		default:
			return err
		}
	}
	return err
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
	err := c.call(tid, "Lock", &LockArgs{
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

// Unlock releases key in the given mode.
func (c *Client) Unlock(key string, mode Mode) error {
	return c.call(0, "Unlock", &UnlockArgs{Key: key, Owner: c.owner, Mode: mode}, nil, rpc.DefaultCallTimeout)
}

// Close tears down the connection (held leases expire via TTL).
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
