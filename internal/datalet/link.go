package datalet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// ErrLinkDown fails a call on a Link that has no connection and may not
// dial yet. It wraps the error of the last dial, so a refusal stays a
// refusal (transport.ErrRefused) to whoever asks.
var ErrLinkDown = errors.New("datalet: link down")

// Links is the connection sets one owner — a client, a controlet, a
// baseline node — keeps to data-path addresses on one network: address →
// Link. It is the only place in the data plane that decides a connection
// set died and dials another; callers keep To(addr, codec), retry their own
// operations as they see fit, and never drop anything.
type Links struct {
	network transport.Network
	size    int           // connections per link
	timeout time.Duration // pipeline watchdog of each connection; 0: none

	// byAddr is replaced, never changed, so To reads it without a lock; mu
	// orders the writers. An address is never forgotten: a link nobody uses
	// holds no goroutine and, once its connections died, no connection.
	byAddr atomic.Pointer[map[string]*Link]
	mu     sync.Mutex
	closed atomic.Bool
}

// NewLinks returns an empty set; nothing is dialled until a link is used.
func NewLinks(network transport.Network, size int, callTimeout time.Duration) *Links {
	ls := &Links{network: network, size: size, timeout: callTimeout}
	ls.byAddr.Store(&map[string]*Link{})
	return ls
}

// To returns the link to addr. codec is what the address speaks; the first
// call that names the address fixes it.
func (ls *Links) To(addr string, codec wire.Codec) *Link {
	if l := (*ls.byAddr.Load())[addr]; l != nil {
		return l
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	old := *ls.byAddr.Load()
	if l := old[addr]; l != nil {
		return l
	}
	l := &Link{links: ls, addr: addr, codec: codec}
	l.dialed.L = &l.mu
	next := make(map[string]*Link, len(old)+1)
	for a, ol := range old {
		next[a] = ol
	}
	next[addr] = l
	ls.byAddr.Store(&next)
	return l
}

// LinkStats sums a Links for /statusz.
type LinkStats struct {
	Links int // addresses ever used
	Conns int // live connections
	Load  int // requests queued or in flight on them
	Down  int // links whose next use dials: never dialled, or a connection failed
}

// Stats reports the set's size and health.
func (ls *Links) Stats() (st LinkStats) {
	for _, l := range *ls.byAddr.Load() {
		st.Links++
		whole := false
		if p := l.cur.Load(); p != nil {
			conns, load := p.Stats()
			st.Conns += conns
			st.Load += load
			_, whole = p.live()
		}
		if !whole {
			st.Down++
		}
	}
	return st
}

// Close closes every connection: calls in flight and later ones fail with
// ErrClientClosed, and a dial in flight is discarded when it returns.
func (ls *Links) Close() error {
	ls.closed.Store(true)
	for _, l := range *ls.byAddr.Load() {
		l.mu.Lock()
		p := l.cur.Swap(nil)
		l.mu.Unlock()
		if p != nil {
			_ = p.Close()
		}
	}
	return nil
}

// Link is a connection set to one address that heals itself. Its current
// Pool — a generation — serves calls until one of its connections fails: a
// peer that restarted has reset them all, and the idle ones do not know it
// yet. The first call to find a failed member dials the next generation,
// outside every lock, swaps it in against the one it found and closes that,
// so a failure that arrives late from the old generation closes nothing.
// Callers that arrive during the dial wait for it. After a dial that failed,
// calls fail at once with ErrLinkDown until the pause of transport.Backoff
// has passed, then one of them dials again. Re-dialling is driven by use
// alone: there is no goroutine, and an address nobody routes to any more is
// never dialled.
type Link struct {
	links *Links
	addr  string
	codec wire.Codec

	cur atomic.Pointer[Pool] // nil before the first dial and after Close

	mu      sync.Mutex // guards what follows; not held across a dial
	dialing bool
	dialed  sync.Cond // a dial returned
	fails   int       // dials failed in a row
	retryAt time.Time // no dial before this
	err     error     // why the last dial failed
}

// get returns the least-loaded connection of a generation that is whole,
// dialling one if need be. The steady state is one atomic load and the scan
// of Pool.live: no lock, no clock, no allocation.
func (l *Link) get() (*Client, error) {
	for {
		p := l.cur.Load()
		if p != nil {
			if c, whole := p.live(); whole {
				return c, nil
			}
		}
		if err := l.heal(p); err != nil {
			return nil, err
		}
	}
}

// heal replaces dead, the generation its caller found with a failed
// connection (nil: none yet). A nil return means the link has another
// generation now, dialled by this caller or by one it waited for.
func (l *Link) heal(dead *Pool) error {
	ls := l.links
	l.mu.Lock()
	for l.dialing {
		l.dialed.Wait()
	}
	var err error
	switch {
	case ls.closed.Load():
		err = ErrClientClosed
	case l.cur.Load() != dead: // replaced while this caller waited
	case time.Now().Before(l.retryAt):
		err = fmt.Errorf("%w: %w", ErrLinkDown, l.err)
	default:
		l.dialing = true
	}
	dial := l.dialing
	l.mu.Unlock()
	if !dial {
		return err
	}

	p, err := DialPool(ls.network, l.addr, l.codec, ls.size)

	l.mu.Lock()
	l.dialing = false
	l.dialed.Broadcast()
	switch {
	case err != nil:
		linkDialFailures.Inc()
		l.err = err
		l.retryAt = time.Now().Add(transport.Backoff(l.fails))
		l.fails++
		dead, err = nil, fmt.Errorf("%w: %w", ErrLinkDown, err)
	case ls.closed.Load():
		dead, err = p, ErrClientClosed
	default:
		l.fails = 0
		if ls.timeout > 0 {
			p.SetCallTimeout(ls.timeout)
		}
		l.cur.Store(p)
		if dead != nil {
			linkRedials.Inc()
		}
	}
	l.mu.Unlock()
	if dead != nil {
		_ = dead.Close() // outside the lock: Close waits for the connection's loops
	}
	return err
}

// Do dispatches one request on the least-loaded live connection.
func (l *Link) Do(req *wire.Request, resp *wire.Response) error {
	return l.Start(req, resp).Wait()
}

// Start launches one request on the least-loaded live connection (see
// Client.Start); a link that is down returns its error from Wait.
func (l *Link) Start(req *wire.Request, resp *wire.Response) Pending {
	c, err := l.get()
	if err != nil {
		return Pending{err: err}
	}
	return c.Start(req, resp)
}
