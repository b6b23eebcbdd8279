package transport

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Inproc is the kernel-bypass network: connections are pairs of in-process
// ring buffers, so a round trip costs two buffer copies and two futex-free
// condition-variable handoffs instead of four syscalls and the loopback
// stack. It is the DPDK stand-in for the Fig. 17 experiment and also makes
// large in-process cluster tests cheap.
type Inproc struct{}

// Name reports "inproc".
func (Inproc) Name() string { return "inproc" }

// ringSize is each direction's buffer capacity. 256 KiB comfortably holds
// many pipelined requests, emulating a DPDK ring of 2k descriptors. A ring
// starts at ringMin and doubles up to ringSize only when a writer finds it
// full: most connections (control RPCs, closed-loop callers) never have
// more than a frame or two in flight, and at 512 KiB a pair they were a
// tenth of an idle cluster's heap.
const (
	ringSize = 256 << 10
	ringMin  = 4 << 10
)

var (
	inprocMu        sync.Mutex
	inprocListeners = map[string]*inprocListener{}
	inprocSeq       atomic.Uint64
)

// Listen binds a named in-process endpoint. Empty addr or an addr with a
// ":0" suffix allocates a unique name, reported by Listener.Addr.
func (Inproc) Listen(addr string) (Listener, error) {
	inprocMu.Lock()
	defer inprocMu.Unlock()
	if addr == "" || addr == ":0" {
		addr = fmt.Sprintf("inproc-%d", inprocSeq.Add(1))
	}
	if _, dup := inprocListeners[addr]; dup {
		return nil, fmt.Errorf("transport: inproc address %q already bound", addr)
	}
	l := &inprocListener{addr: addr, backlog: make(chan Conn, 128)}
	inprocListeners[addr] = l
	return l, nil
}

// Dial connects to a bound in-process endpoint.
func (Inproc) Dial(addr string) (Conn, error) {
	inprocMu.Lock()
	l, ok := inprocListeners[addr]
	inprocMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: inproc address %q not bound: %w", addr, ErrRefused)
	}
	a2b := newRing()
	b2a := newRing()
	client := &inprocConn{rd: b2a, wr: a2b, local: "client", remote: addr}
	server := &inprocConn{rd: a2b, wr: b2a, local: addr, remote: "client"}
	// The enqueue happens under l.mu, the same lock Close holds while it
	// closes the backlog — otherwise a dial racing Close could send on a
	// closed channel and panic.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, fmt.Errorf("transport: inproc address %q not bound: %w", addr, ErrRefused)
	}
	select {
	case l.backlog <- server:
		l.mu.Unlock()
		return client, nil
	default:
		l.mu.Unlock()
		return nil, fmt.Errorf("transport: inproc backlog full for %q", addr)
	}
}

type inprocListener struct {
	addr    string
	backlog chan Conn
	mu      sync.Mutex
	closed  bool
}

func (l *inprocListener) Accept() (Conn, error) {
	c, ok := <-l.backlog
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

func (l *inprocListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.backlog)
	l.mu.Unlock()
	inprocMu.Lock()
	delete(inprocListeners, l.addr)
	inprocMu.Unlock()
	// Tear down conns still queued for accept, as TCP resets its SYN
	// backlog when a listener closes. Abandoning them would leave each
	// dialer blocked in its first read forever: servers that observe
	// their stop flag right after Accept close that one conn and exit
	// their accept loop, so nothing else would ever serve or close the
	// rest of the queue. Accept may be draining concurrently; a conn
	// goes to exactly one receiver and closing is idempotent.
	for c := range l.backlog {
		_ = c.Close()
	}
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

// ring is a single-direction byte ring buffer with blocking reads and
// writes, the software analogue of a NIC descriptor ring.
type ring struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []byte // power-of-two length, ringMin..ringSize
	r, w     int    // read and write cursors
	n        int    // bytes buffered
	closed   bool
}

func newRing() *ring {
	r := &ring{buf: make([]byte, ringMin)}
	r.notEmpty.L = &r.mu
	r.notFull.L = &r.mu
	return r
}

func (q *ring) read(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		if q.closed {
			return 0, io.EOF
		}
		q.notEmpty.Wait()
	}
	total := 0
	for total < len(p) && q.n > 0 {
		chunk := len(q.buf) - q.r
		if chunk > q.n {
			chunk = q.n
		}
		if chunk > len(p)-total {
			chunk = len(p) - total
		}
		copy(p[total:], q.buf[q.r:q.r+chunk])
		q.r = (q.r + chunk) & (len(q.buf) - 1)
		q.n -= chunk
		total += chunk
	}
	q.notFull.Broadcast()
	return total, nil
}

func (q *ring) write(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	total := 0
	for total < len(p) {
		for q.n == len(q.buf) {
			if q.closed {
				return total, ErrClosed
			}
			if len(q.buf) < ringSize {
				q.grow(len(p) - total)
				break
			}
			q.notFull.Wait()
		}
		if q.closed {
			return total, ErrClosed
		}
		chunk := len(q.buf) - q.w
		if chunk > len(q.buf)-q.n {
			chunk = len(q.buf) - q.n
		}
		if chunk > len(p)-total {
			chunk = len(p) - total
		}
		copy(q.buf[q.w:q.w+chunk], p[total:total+chunk])
		q.w = (q.w + chunk) & (len(q.buf) - 1)
		q.n += chunk
		total += chunk
		q.notEmpty.Broadcast()
	}
	return total, nil
}

// grow doubles a full ring until need more bytes fit (or it reaches
// ringSize), unwrapping the buffered bytes to the front. Caller holds mu.
func (q *ring) grow(need int) {
	size := 2 * len(q.buf)
	for size < q.n+need && size < ringSize {
		size *= 2
	}
	buf := make([]byte, size)
	head := copy(buf, q.buf[q.r:])
	copy(buf[head:], q.buf[:q.w])
	q.buf, q.r, q.w = buf, 0, q.n
}

func (q *ring) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

type inprocConn struct {
	rd, wr        *ring
	local, remote string
	closeOnce     sync.Once
}

func (c *inprocConn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *inprocConn) Write(p []byte) (int, error) { return c.wr.write(p) }

func (c *inprocConn) Close() error {
	c.closeOnce.Do(func() {
		c.rd.close()
		c.wr.close()
	})
	return nil
}

func (c *inprocConn) LocalAddr() string  { return c.local }
func (c *inprocConn) RemoteAddr() string { return c.remote }

func init() {
	Register(Inproc{})
}
