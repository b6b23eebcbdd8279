package rsm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/rpc"
	"bespokv/internal/transport"
)

// Client is how a process finds and follows the leader of a control-plane
// group (coordinator, lock service, shared log): one rpc connection at a
// time to one member of a fixed address list, replaced as members fail or
// name a different leader. A group of one is a list of one. The policy is
// fixed:
//
//   - a call gets max(4, 3·members) attempts, with a capped, jittered,
//     exponential pause between them (transport.Backoff);
//   - a member that answers NotLeader is left for the leader it names (the
//     next in the list when it names none), and the client stays with the
//     member that served it last until that one fails — a hint outside the
//     list included;
//   - a dial error or a failed connection (rpc.ErrConnFailed) drops the
//     connection and moves to the next member;
//   - a call timeout does the same and then returns: the call may have run,
//     so retrying is the caller's decision, but the next call must not sit
//     out another timeout on a silent member;
//   - any other error is the service's answer, which every member would
//     give alike, and is returned as is.
//
// The typed clients of the three services are method sets over a Client.
type Client struct {
	network transport.Network
	addrs   []string

	callTimeout atomic.Int64 // ns; the deadline of a Call that names none

	mu     sync.Mutex
	cur    int    // index in addrs of the member the connection targets
	hint   string // a leader outside addrs to dial in place of addrs[cur]
	conn   *rpc.Client
	closed bool

	// granting is the connection the leader last answered on — the one a
	// lock service's grants arrive on, hence the only one on which a one-way
	// frame is ordered against them. drop clears it.
	granting atomic.Pointer[rpc.Client]
}

// ErrClientClosed fails calls on a closed Client. Without it Close could
// not abort a call in flight: the call would see its connection die, take
// that for a member failure and dial again — every teardown of a long-poll
// would sit out a fresh poll window.
var ErrClientClosed = errors.New("rsm: client closed")

// errNoLeaderConn is Send's refusal; callers fall back to Call.
var errNoLeaderConn = errors.New("rsm: no connection the leader has answered on")

func splitAddrs(list string) []string {
	var out []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Dial connects to the first reachable member of addrs, one address or a
// comma-separated list — so every single-string config surface (a flag, a
// Config field) carries a replicated group without changing shape.
func Dial(network transport.Network, addrs string) (*Client, error) {
	c := &Client{network: network, addrs: splitAddrs(addrs)}
	if len(c.addrs) == 0 {
		return nil, errors.New("rsm: no address to dial")
	}
	c.callTimeout.Store(int64(rpc.DefaultCallTimeout))
	var err error
	for range c.addrs {
		if _, err = c.connect(); err == nil {
			return c, nil
		}
		c.rotate("")
	}
	return nil, fmt.Errorf("rsm: no reachable member in %v: %w", c.addrs, err)
}

// SetCallTimeout sets how long a Call that names no timeout waits for its
// response (rpc.DefaultCallTimeout until set). Loops that must notice a
// partitioned member quickly — heartbeats, map refreshes — set it low; a
// long-poll's window has to fit inside it.
func (c *Client) SetCallTimeout(d time.Duration) { c.callTimeout.Store(int64(d)) }

// Addr reports the member the client currently targets (tests, logs).
func (c *Client) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.target()
}

func (c *Client) target() string {
	if c.hint != "" {
		return c.hint
	}
	return c.addrs[c.cur]
}

// connect returns the live connection, dialing the current target if there
// is none. The dial happens outside the lock; of two racing dials the first
// to finish is kept.
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
	addr := c.target()
	c.mu.Unlock()
	nc, err := rpc.DialClient(c.network, addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	cur, closed := c.conn, c.closed
	if cur == nil && !closed {
		c.conn = nc
	}
	c.mu.Unlock()
	switch {
	case closed:
		nc.Close()
		return nil, ErrClientClosed
	case cur != nil:
		nc.Close()
		return cur, nil
	}
	return nc, nil
}

// drop forgets conn, if it is still the current one, so the next call dials.
func (c *Client) drop(conn *rpc.Client) {
	c.granting.CompareAndSwap(conn, nil)
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.mu.Unlock()
	conn.Close()
}

// rotate retargets: at the leader a member named, else at the next member.
func (c *Client) rotate(leader string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hint = ""
	if leader == "" {
		c.cur = (c.cur + 1) % len(c.addrs)
		return
	}
	for i, a := range c.addrs {
		if a == leader {
			c.cur = i
			return
		}
	}
	// A leader outside the configured list (a member added after this
	// client was built): trust the hint until that member fails.
	c.hint = leader
}

// isConnErr reports errors that mean this member is unreachable, as opposed
// to answers, which every member would give alike. rpc wraps every failure
// of an established connection in its sentinel, so there is no text to match.
func isConnErr(err error) bool { return errors.Is(err, rpc.ErrConnFailed) }

// Call runs one RPC under the policy in the type's comment. tid is the
// trace ID of a sampled request (0: none). timeout bounds the wait for each
// attempt's response; zero means the client's call timeout, and a long-poll
// passes its window plus that.
func (c *Client) Call(tid uint64, method string, args, reply any, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = time.Duration(c.callTimeout.Load())
	}
	attempts := max(4, 3*len(c.addrs))
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(transport.Backoff(i - 1))
		}
		var conn *rpc.Client
		if conn, err = c.connect(); err != nil {
			if errors.Is(err, ErrClientClosed) {
				return err
			}
			c.rotate("")
			continue
		}
		err = conn.CallTimeoutTraced(tid, method, args, reply, timeout)
		switch {
		case err == nil:
			if c.granting.Load() != conn {
				c.granting.Store(conn)
			}
			return nil
		case IsNotLeader(err):
			c.drop(conn)
			c.rotate(LeaderHint(err))
		case isConnErr(err):
			c.drop(conn)
			c.rotate("")
		case errors.Is(err, rpc.ErrCallTimeout):
			c.drop(conn)
			c.rotate("")
			return err
		default:
			return err
		}
	}
	return err
}

// Send writes a one-way frame (rpc.Client.Send) on the connection the leader
// last answered a Call on, and refuses when there is none — before the first
// answer, after a drop, after Close. It is tied to that connection because
// order is all a one-way frame has: it is handled before any later frame of
// the same connection, and nothing reports one that a follower or a deposed
// leader ignored. Send never dials and never retries; a caller that gets an
// error falls back to an awaited Call, which finds the leader.
func (c *Client) Send(method string, args any) error {
	conn := c.granting.Load()
	if conn == nil {
		return errNoLeaderConn
	}
	return conn.Send(method, args)
}

// Close tears down the connection; a call in flight, long-polls included,
// fails with ErrClientClosed.
func (c *Client) Close() error {
	c.granting.Store(nil)
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
