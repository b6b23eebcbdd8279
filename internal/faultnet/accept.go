package faultnet

import (
	"sync/atomic"
	"syscall"

	"bespokv/internal/transport"
)

// FailAccepts wraps a network so that every listener opened through it
// fails its first n Accepts with EMFILE — what a process briefly out of file
// descriptors sees — and then accepts normally. Dials pass through. It is
// the fault a server's accept loop has to outlive.
func FailAccepts(inner transport.Network, n int) transport.Network {
	return failAcceptNet{Network: inner, n: int64(n)}
}

type failAcceptNet struct {
	transport.Network
	n int64
}

func (f failAcceptNet) Listen(addr string) (transport.Listener, error) {
	l, err := f.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	fl := &failAcceptListener{Listener: l}
	fl.left.Store(f.n)
	return fl, nil
}

type failAcceptListener struct {
	transport.Listener
	left atomic.Int64
}

func (l *failAcceptListener) Accept() (transport.Conn, error) {
	if l.left.Add(-1) >= 0 {
		return nil, syscall.EMFILE
	}
	return l.Listener.Accept()
}
