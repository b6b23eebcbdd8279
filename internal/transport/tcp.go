package transport

import (
	"errors"
	"net"
	"time"
)

// TCP is the kernel socket network. It disables Nagle's algorithm on every
// connection, as latency-sensitive KV stores do.
type TCP struct{}

// Name reports "tcp".
func (TCP) Name() string { return "tcp" }

const (
	// DialTimeout bounds connection establishment: an unreachable peer
	// must fail fast so the caller can drop it and repair the topology,
	// not sit in the kernel's SYN retry schedule for minutes.
	DialTimeout = 5 * time.Second
	// KeepAlivePeriod turns on TCP keep-alive probes so half-open
	// connections to crashed peers are detected even when idle.
	KeepAlivePeriod = 30 * time.Second
)

// Listen binds a TCP listener on addr ("host:port"; port 0 picks a free one).
func (TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &netListener{l: l}, nil
}

// Dial connects to a TCP address, bounded by DialTimeout and with
// keep-alive probes enabled.
func (TCP) Dial(addr string) (Conn, error) {
	d := net.Dialer{Timeout: DialTimeout, KeepAlive: KeepAlivePeriod}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return netConn{c}, nil
}

// netListener adapts a kernel socket listener, TCP or unix-domain.
type netListener struct {
	l net.Listener
}

func (t *netListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(KeepAlivePeriod)
	}
	return netConn{c}, nil
}

func (t *netListener) Close() error { return t.l.Close() }
func (t *netListener) Addr() string { return t.l.Addr().String() }

type netConn struct {
	net.Conn
}

func (c netConn) LocalAddr() string  { return c.Conn.LocalAddr().String() }
func (c netConn) RemoteAddr() string { return c.Conn.RemoteAddr().String() }

func init() {
	Register(TCP{})
}
