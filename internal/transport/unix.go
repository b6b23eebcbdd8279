package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"syscall"
)

// Unix is the unix-domain socket network: the kernel's IPC path between
// two processes on one machine. It carries the hop between a controlet and
// the datalet collocated with it, which over TCP would cross the whole
// loopback stack for no reason; it has no TCP options to set. Addresses are
// socket file paths.
type Unix struct{}

// Name reports "unix".
func (Unix) Name() string { return "unix" }

// unixPrefix marks an address that names a socket file rather than an
// endpoint of the cluster's own network (see Resolve).
const unixPrefix = "unix:"

// maxUnixPath is the longest usable socket path: sockaddr_un.sun_path is
// 108 bytes and the kernel wants the terminating NUL inside it.
const maxUnixPath = 107

// Listen binds a socket file at path. A file left there by a process that
// died without unlinking it is replaced; one that a live process still
// accepts on is not. Close unlinks the file.
func (Unix) Listen(path string) (Listener, error) {
	if len(path) > maxUnixPath {
		return nil, fmt.Errorf("transport: unix socket path is %d bytes, the limit is %d: %q", len(path), maxUnixPath, path)
	}
	l, err := net.Listen("unix", path)
	if errors.Is(err, syscall.EADDRINUSE) {
		// Somebody bound this path. If it is a socket nobody answers on any
		// more, the file is a crashed process's leftover.
		if fi, serr := os.Lstat(path); serr != nil || fi.Mode()&os.ModeSocket == 0 {
			return nil, err
		}
		if c, derr := net.DialTimeout("unix", path, DialTimeout); derr == nil {
			_ = c.Close()
			return nil, err
		} else if !errors.Is(derr, syscall.ECONNREFUSED) {
			return nil, err
		}
		if rerr := os.Remove(path); rerr != nil {
			return nil, fmt.Errorf("transport: replace stale socket: %w", rerr)
		}
		l, err = net.Listen("unix", path)
	}
	if err != nil {
		return nil, err
	}
	return &netListener{l: l}, nil
}

// Dial connects to the socket file at path.
func (Unix) Dial(path string) (Conn, error) {
	c, err := net.DialTimeout("unix", path, DialTimeout)
	if err != nil {
		return nil, err
	}
	return netConn{c}, nil
}

// Resolve picks the network an address is dialled on from the address's
// form: "unix:<path>" names a socket file on the unix network, anything
// else an endpoint of def.
func Resolve(def Network, addr string) (Network, string) {
	if path, ok := strings.CutPrefix(addr, unixPrefix); ok {
		return Unix{}, path
	}
	return def, addr
}

// UnixAddr is the address form Resolve reads back as the socket file path.
func UnixAddr(path string) string { return unixPrefix + path }

func init() {
	Register(Unix{})
}
