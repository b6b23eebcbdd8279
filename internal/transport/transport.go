// Package transport abstracts the byte-stream fabric underneath the wire
// protocol so the same servers and clients run over kernel TCP sockets,
// over unix-domain sockets (the hop between a controlet and the datalet on
// its own machine) or over in-process shared-memory rings. The in-process
// network is this reproduction's stand-in for the paper's DPDK
// kernel-bypass path (§E): both remove the syscall and copy costs of the
// socket path while keeping the stream semantics identical.
package transport

import (
	"fmt"
	"io"
	"sync"
	"syscall"
)

// Conn is a reliable, ordered, full-duplex byte stream.
type Conn interface {
	io.Reader
	io.Writer
	io.Closer
	// LocalAddr and RemoteAddr return transport-specific endpoint names.
	LocalAddr() string
	RemoteAddr() string
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks until a connection arrives or the listener closes.
	Accept() (Conn, error)
	// Close stops the listener; blocked Accepts return ErrClosed.
	Close() error
	// Addr returns the bound address, usable with Network.Dial.
	Addr() string
}

// Network creates listeners and dials connections.
type Network interface {
	// Name identifies the network ("tcp", "unix" or "inproc").
	Name() string
	// Listen binds addr. For tcp, "host:0" picks a free port (see Addr);
	// for unix, addr is the socket file's path.
	Listen(addr string) (Listener, error)
	// Dial connects to a listener's address.
	Dial(addr string) (Conn, error)
}

// ErrClosed is returned by operations on closed listeners and connections.
var ErrClosed = fmt.Errorf("transport: use of closed connection")

// ErrRefused marks a Dial that found nobody listening at the address: a
// peer that is dead or not started yet, as opposed to one that cannot be
// reached. It is the kernel's own errno, so a tcp or unix dial error
// satisfies errors.Is without being wrapped; inproc wraps it.
var ErrRefused error = syscall.ECONNREFUSED

var (
	regMu    sync.RWMutex
	networks = map[string]Network{}
)

// Register adds a network implementation; duplicate names panic at init.
func Register(n Network) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := networks[n.Name()]; dup {
		panic("transport: duplicate network " + n.Name())
	}
	networks[n.Name()] = n
}

// Lookup returns the network registered under name.
func Lookup(name string) (Network, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	n, ok := networks[name]
	if !ok {
		return nil, fmt.Errorf("transport: unknown network %q", name)
	}
	return n, nil
}
