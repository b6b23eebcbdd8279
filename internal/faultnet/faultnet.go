// Package faultnet is the cluster's programmable fault plane: a wrapper
// around any transport.Network (inproc or tcp) that injects network faults
// between *named hosts* — message drop, duplication, reordering, added
// latency, bandwidth caps, and asymmetric link-level partitions. Every
// probabilistic decision is drawn from a per-link PRNG derived from one
// fabric seed, so a fault sequence reproduces exactly from its seed (see
// nemesis.go for seeded schedules).
//
// Topology model: a Fabric wraps one inner network. Each component of the
// system obtains its own transport.Network view via Fabric.Host(name);
// everything that view dials or serves is attributed to that host. The
// dialing host's name travels in-band as a tiny connection preamble, so the
// accept side knows who is on the other end and can apply directed rules to
// its responses. Faults are applied per *message* — one Write call is one
// quantum — which matches the repo's wire/rpc codecs: both flush whole
// frames, so a dropped quantum is a dropped frame, never a torn one.
//
// Partition semantics are blackhole, not refusal: a blocked link queues
// outbound messages (bounded, with backpressure) and Heal delivers them,
// exactly like a switch port coming back. Same-host traffic (src == dst,
// e.g. a controlet talking to its collocated datalet) is never partitioned.
package faultnet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"time"

	"bespokv/internal/transport"
)

// Rule describes the fault behavior of one directed link (src → dst).
// The zero Rule is a perfect link.
type Rule struct {
	// Drop, Dup and Reorder are per-message probabilities in [0,1).
	// Reorder swaps the message with the previous still-queued one.
	Drop    float64
	Dup     float64
	Reorder float64
	// Delay (+ a uniform random Jitter) is added store-and-forward
	// latency per message.
	Delay  time.Duration
	Jitter time.Duration
	// BandwidthBps throttles the link to this many bytes/second (0 =
	// unlimited).
	BandwidthBps int
}

// faulty reports whether the rule needs PRNG draws at enqueue time.
func (r Rule) faulty() bool {
	return r.Drop > 0 || r.Dup > 0 || r.Reorder > 0 || r.Delay > 0 || r.Jitter > 0 || r.BandwidthBps > 0
}

// linkKey identifies a directed host pair; "*" matches any host.
type linkKey struct{ src, dst string }

// maxQueuedBytes bounds each connection's outbound queue; writers beyond it
// block (backpressure) so a long partition cannot eat unbounded memory.
const maxQueuedBytes = 4 << 20

// preambleMagic opens every fabric connection, followed by a length-prefixed
// dialer host name. It rides the normal fault pipeline (so a blackholed dial
// stalls like a SYN would) but is exempt from drop/dup/reorder — losing it
// would desynchronize the framing for the whole connection.
var preambleMagic = [4]byte{'b', 'k', 'f', 'n'}

// Fabric is a fault-injecting overlay over one inner transport network.
// All methods are safe for concurrent use.
type Fabric struct {
	inner transport.Network
	seed  int64

	mu      sync.Mutex
	cond    *sync.Cond        // broadcast on any state change
	owners  map[string]string // inner listener addr → host name
	rules   map[linkKey]Rule  // directed fault rules
	blocked map[linkKey]bool  // directed blackholes ("*" wildcards)
	rngs    map[linkKey]*rand.Rand
}

// New wraps inner with a fault plane; seed determines every probabilistic
// fault decision the fabric will ever make.
func New(inner transport.Network, seed int64) *Fabric {
	f := &Fabric{
		inner:   inner,
		seed:    seed,
		owners:  map[string]string{},
		rules:   map[linkKey]Rule{},
		blocked: map[linkKey]bool{},
		rngs:    map[linkKey]*rand.Rand{},
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Seed returns the fabric's seed (for failure logs).
func (f *Fabric) Seed() int64 { return f.seed }

// Inner returns the wrapped network.
func (f *Fabric) Inner() transport.Network { return f.inner }

// Host returns the transport view of one named host. Listeners opened
// through it attribute inbound connections to name; dials attribute
// outbound traffic to name.
func (f *Fabric) Host(name string) transport.Network {
	return &hostNet{f: f, host: name}
}

// SetLink installs a directed fault rule; "*" in either position wildcards.
// Exact (src,dst) rules win over (src,*), then (*,dst), then (*,*).
func (f *Fabric) SetLink(src, dst string, r Rule) {
	f.mu.Lock()
	f.rules[linkKey{src, dst}] = r
	f.cond.Broadcast()
	f.mu.Unlock()
}

// SetLinkBoth installs r in both directions between a and b.
func (f *Fabric) SetLinkBoth(a, b string, r Rule) {
	f.mu.Lock()
	f.rules[linkKey{a, b}] = r
	f.rules[linkKey{b, a}] = r
	f.cond.Broadcast()
	f.mu.Unlock()
}

// ClearLinks removes every fault rule (partitions are separate; see Heal).
func (f *Fabric) ClearLinks() {
	f.mu.Lock()
	f.rules = map[linkKey]Rule{}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Block blackholes the directed link src → dst ("*" wildcards allowed).
// Messages queue and are delivered on Heal/Unblock.
func (f *Fabric) Block(src, dst string) {
	f.mu.Lock()
	f.blocked[linkKey{src, dst}] = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Unblock removes one directed blackhole, draining its queued messages.
func (f *Fabric) Unblock(src, dst string) {
	f.mu.Lock()
	delete(f.blocked, linkKey{src, dst})
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Partition blackholes every link between group a and group b, both ways.
func (f *Fabric) Partition(a, b []string) {
	f.mu.Lock()
	for _, ha := range a {
		for _, hb := range b {
			f.blocked[linkKey{ha, hb}] = true
			f.blocked[linkKey{hb, ha}] = true
		}
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Isolate blackholes every link to and from host (its loopback stays up).
func (f *Fabric) Isolate(host string) {
	f.mu.Lock()
	f.blocked[linkKey{host, "*"}] = true
	f.blocked[linkKey{"*", host}] = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Heal removes every partition; blocked queues drain in order.
func (f *Fabric) Heal() {
	f.mu.Lock()
	f.blocked = map[linkKey]bool{}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Blocked reports whether src → dst is currently blackholed.
func (f *Fabric) Blocked(src, dst string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.blockedLocked(src, dst)
}

func (f *Fabric) blockedLocked(src, dst string) bool {
	if src == dst {
		return false // same-host traffic never partitions
	}
	return f.blocked[linkKey{src, dst}] ||
		f.blocked[linkKey{src, "*"}] ||
		f.blocked[linkKey{"*", dst}]
}

// ruleLocked resolves the effective rule for src → dst.
func (f *Fabric) ruleLocked(src, dst string) Rule {
	if src == dst {
		return Rule{}
	}
	if r, ok := f.rules[linkKey{src, dst}]; ok {
		return r
	}
	if r, ok := f.rules[linkKey{src, "*"}]; ok {
		return r
	}
	if r, ok := f.rules[linkKey{"*", dst}]; ok {
		return r
	}
	return f.rules[linkKey{"*", "*"}]
}

// rngLocked returns the deterministic PRNG for one directed link. Each link
// gets its own stream (seed ⊕ hash(src→dst)) so goroutine scheduling across
// links cannot perturb any single link's fault sequence.
func (f *Fabric) rngLocked(src, dst string) *rand.Rand {
	k := linkKey{src, dst}
	if r, ok := f.rngs[k]; ok {
		return r
	}
	h := fnv.New64a()
	io.WriteString(h, src)
	io.WriteString(h, "\x00→\x00")
	io.WriteString(h, dst)
	r := rand.New(rand.NewSource(f.seed ^ int64(h.Sum64())))
	f.rngs[k] = r
	return r
}

// ownerOf resolves the host name serving an inner address ("" if the
// listener was not opened through this fabric).
func (f *Fabric) ownerOf(addr string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.owners[addr]
}

// --- per-host network view ------------------------------------------------

type hostNet struct {
	f    *Fabric
	host string
}

func (n *hostNet) Name() string { return n.f.inner.Name() }

func (n *hostNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.f.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	n.f.mu.Lock()
	n.f.owners[l.Addr()] = n.host
	n.f.mu.Unlock()
	return &listener{f: n.f, host: n.host, inner: l}, nil
}

func (n *hostNet) Dial(addr string) (transport.Conn, error) {
	inner, err := n.f.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := newConn(n.f, inner, n.host, n.f.ownerOf(addr))
	// Announce who is dialing. The preamble goes through the fault
	// pipeline (a partitioned dial blackholes like a SYN) but is pristine:
	// never dropped, duplicated or reordered.
	pre := make([]byte, 0, len(preambleMagic)+1+len(n.host))
	pre = append(pre, preambleMagic[:]...)
	pre = append(pre, byte(len(n.host)))
	pre = append(pre, n.host...)
	if err := c.enqueue(pre, true); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

type listener struct {
	f     *Fabric
	host  string
	inner transport.Listener
}

func (l *listener) Accept() (transport.Conn, error) {
	inner, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	// The dialer's identity arrives in-band; it is consumed lazily on the
	// first Read so a blackholed preamble cannot wedge the accept loop.
	c := newConn(l.f, inner, l.host, "")
	c.needPreamble = true
	return c, nil
}

func (l *listener) Close() error {
	l.f.mu.Lock()
	delete(l.f.owners, l.inner.Addr())
	l.f.mu.Unlock()
	return l.inner.Close()
}

func (l *listener) Addr() string { return l.inner.Addr() }

// --- connection -----------------------------------------------------------

type msg struct {
	data     []byte
	delay    time.Duration // store-and-forward latency before delivery
	pace     time.Duration // bandwidth pacing after delivery
	pristine bool          // preamble: must stay first, never reordered past
}

// conn wraps one inner connection. Writes are enqueued (with fault
// decisions drawn under the fabric lock, in submission order — that is what
// makes a seed reproduce) and delivered by a dedicated sender goroutine
// that honors partitions, delays and bandwidth. Reads delegate to the inner
// connection; the peer's sender already injected that direction's faults.
type conn struct {
	f     *Fabric
	inner transport.Conn
	src   string

	// dst is the remote host name: set at Dial for outbound connections,
	// learned from the preamble for accepted ones. Guarded by f.mu.
	dst          string
	needPreamble bool // accepted side: strip the preamble on first Read
	preErr       error
	preOnce      sync.Once

	// Guarded by f.mu.
	q      []msg
	qBytes int
	closed bool
	werr   error // sticky sender-side write error

	senderDone chan struct{}
}

func newConn(f *Fabric, inner transport.Conn, src, dst string) *conn {
	c := &conn{f: f, inner: inner, src: src, dst: dst, senderDone: make(chan struct{})}
	go c.sender()
	return c
}

func (c *conn) Read(p []byte) (int, error) {
	if c.needPreamble {
		c.preOnce.Do(c.readPreamble)
		if c.preErr != nil {
			return 0, c.preErr
		}
	}
	return c.inner.Read(p)
}

// readPreamble consumes the dialer's identity announcement and records the
// remote host so this connection's responses obey directed rules.
func (c *conn) readPreamble() {
	var hdr [5]byte
	if _, err := io.ReadFull(c.inner, hdr[:]); err != nil {
		c.preErr = err
		return
	}
	if [4]byte(hdr[:4]) != preambleMagic {
		c.preErr = errors.New("faultnet: connection without fabric preamble")
		return
	}
	name := make([]byte, hdr[4])
	if _, err := io.ReadFull(c.inner, name); err != nil {
		c.preErr = err
		return
	}
	c.f.mu.Lock()
	c.dst = string(name)
	c.f.mu.Unlock()
}

func (c *conn) Write(p []byte) (int, error) {
	if err := c.enqueue(p, false); err != nil {
		return 0, err
	}
	return len(p), nil
}

// enqueue applies fault decisions to one outbound message and hands it to
// the sender. Decisions are drawn under the fabric lock in enqueue order,
// from the link's own PRNG stream.
func (c *conn) enqueue(p []byte, pristine bool) error {
	f := c.f
	f.mu.Lock()
	if c.closed {
		f.mu.Unlock()
		return transport.ErrClosed
	}
	if c.werr != nil {
		err := c.werr
		f.mu.Unlock()
		return err
	}
	m := msg{data: append([]byte(nil), p...), pristine: pristine}
	dup, reorder := false, false
	if !pristine {
		r := f.ruleLocked(c.src, c.dst)
		if r.faulty() {
			rng := f.rngLocked(c.src, c.dst)
			if r.Drop > 0 && rng.Float64() < r.Drop {
				f.mu.Unlock()
				return nil // silently eaten
			}
			dup = r.Dup > 0 && rng.Float64() < r.Dup
			reorder = r.Reorder > 0 && rng.Float64() < r.Reorder
			m.delay = r.Delay
			if r.Jitter > 0 {
				m.delay += time.Duration(rng.Int63n(int64(r.Jitter)))
			}
			if r.BandwidthBps > 0 {
				m.pace = time.Duration(len(p)) * time.Second / time.Duration(r.BandwidthBps)
			}
		}
	}
	for c.qBytes >= maxQueuedBytes && !c.closed && c.werr == nil {
		f.cond.Wait()
	}
	if c.closed || c.werr != nil {
		err := c.werr
		if err == nil {
			err = transport.ErrClosed
		}
		f.mu.Unlock()
		return err
	}
	c.q = append(c.q, m)
	c.qBytes += len(m.data)
	if reorder && len(c.q) >= 2 && !c.q[len(c.q)-2].pristine {
		// Deliver this message before the previous still-queued one — but
		// never ahead of a queued preamble, which must arrive first.
		c.q[len(c.q)-1], c.q[len(c.q)-2] = c.q[len(c.q)-2], c.q[len(c.q)-1]
	}
	if dup {
		d := msg{data: append([]byte(nil), m.data...), delay: m.delay, pace: m.pace}
		c.q = append(c.q, d)
		c.qBytes += len(d.data)
	}
	f.cond.Broadcast()
	f.mu.Unlock()
	return nil
}

// sender delivers queued messages in order, parking while the link is
// partitioned (heal drains the backlog) and sleeping out per-message delay
// and bandwidth pacing.
func (c *conn) sender() {
	defer close(c.senderDone)
	f := c.f
	for {
		f.mu.Lock()
		for {
			if c.closed {
				f.mu.Unlock()
				return
			}
			if len(c.q) > 0 && !f.blockedLocked(c.src, c.dst) {
				break
			}
			f.cond.Wait()
		}
		m := c.q[0]
		c.q[0] = msg{}
		c.q = c.q[1:]
		c.qBytes -= len(m.data)
		if len(c.q) == 0 {
			c.q = nil // release the drifting backing array
		}
		f.cond.Broadcast()
		f.mu.Unlock()

		if m.delay > 0 {
			time.Sleep(m.delay)
		}
		if _, err := c.inner.Write(m.data); err != nil {
			f.mu.Lock()
			c.werr = fmt.Errorf("faultnet: %w", err)
			c.q = nil
			c.qBytes = 0
			f.cond.Broadcast()
			f.mu.Unlock()
			return
		}
		if m.pace > 0 {
			time.Sleep(m.pace)
		}
	}
}

func (c *conn) Close() error {
	c.f.mu.Lock()
	if c.closed {
		c.f.mu.Unlock()
		return nil
	}
	c.closed = true
	c.q = nil
	c.qBytes = 0
	c.f.cond.Broadcast()
	c.f.mu.Unlock()
	return c.inner.Close()
}

func (c *conn) LocalAddr() string  { return c.inner.LocalAddr() }
func (c *conn) RemoteAddr() string { return c.inner.RemoteAddr() }
