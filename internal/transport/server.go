package transport

import (
	"errors"
	"sync"
	"time"
)

// Accept retry backoff: a listener that fails for a reason other than being
// closed (EMFILE, ECONNABORTED, ENOBUFS) is asked again after a pause that
// doubles from acceptBackoffMin up to acceptBackoffMax, so a process out of
// descriptors neither spins nor goes deaf.
const (
	acceptBackoffMin = time.Millisecond
	acceptBackoffMax = 100 * time.Millisecond
)

// Server owns what every server in the repository does with a listener:
// accept, track the live connections, run one goroutine per connection, and
// on Close stop all of it and wait. A server with two listeners (the datalet)
// calls Serve twice; both feed one connection set and one Close.
//
// Why Close cannot race the WaitGroup: every Add — one per accept loop in
// Serve, one per connection in track — happens under mu with closed still
// false, and Close sets closed under mu before it waits. So an Add either
// precedes the flag, and Wait sees it, or finds the flag and does not happen.
type Server struct {
	mu        sync.Mutex
	closed    bool
	listeners []Listener
	conns     map[Conn]struct{}
	wg        sync.WaitGroup
	done      chan struct{} // closed by Close; cuts an accept backoff short
}

// NewServer returns a server with no listener yet.
func NewServer() *Server {
	return &Server{conns: map[Conn]struct{}{}, done: make(chan struct{})}
}

// Serve accepts on l until Close and runs serve on a goroutine of its own for
// every connection, which is closed when serve returns. An Accept error other
// than the listener closing is transient as far as anyone can tell: it goes to
// failed (log it, count it) and Accept is retried after a short capped
// backoff — one such error ending the loop leaves a server that looks alive
// and accepts nobody. Serve returns at once; on a closed server it closes l.
func (s *Server) Serve(l Listener, failed func(error), serve func(Conn)) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = l.Close()
		return
	}
	s.listeners = append(s.listeners, l)
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		backoff := acceptBackoffMin
		for {
			conn, err := l.Accept()
			if err != nil {
				if errors.Is(err, ErrClosed) || s.isClosed() {
					return
				}
				failed(err)
				select {
				case <-time.After(backoff):
				case <-s.done:
					return
				}
				backoff = min(2*backoff, acceptBackoffMax)
				continue
			}
			backoff = acceptBackoffMin
			if !s.track(conn) {
				_ = conn.Close()
				return
			}
			go func() {
				defer s.wg.Done()
				serve(conn)
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				_ = conn.Close()
			}()
		}
	}()
}

// track adds an accepted connection to the live set, unless the server closed
// between the Accept and now.
func (s *Server) track(conn Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Conns returns the number of live connections.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close stops accepting, closes the listeners (a unix listener unlinks its
// socket file), then every live connection — which is what unblocks a serve
// func sitting in Read — and returns once every accept and serve goroutine
// has. It is idempotent and returns the first listener's Close error.
func (s *Server) Close() error {
	var first error
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
		for _, l := range s.listeners {
			if err := l.Close(); err != nil && first == nil {
				first = err
			}
		}
		for c := range s.conns {
			_ = c.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return first
}
