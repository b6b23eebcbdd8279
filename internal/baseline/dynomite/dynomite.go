// Package dynomite reimplements the Netflix Dynomite baseline (Figs. 11
// and 16): an AA+EC proxy layer where every proxy node owns one backend
// datalet, applies client writes locally, and propagates them to its peer
// proxies asynchronously — peer to peer, with NO global ordering service.
// That last property is the paper's point of comparison: when conflicting
// writes to the same key land on different proxies within the replication
// latency window, Dynomite's replicas can disagree permanently (§C-C),
// which bespokv's shared-log AA+EC fixes. The reproduction preserves the
// flaw faithfully: propagated writes carry no version, so each replica
// versions them locally in arrival order.
package dynomite

import (
	"bufio"
	"errors"
	"io"
	"sync"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// Config configures one dynomite proxy node.
type Config struct {
	// Network, Addr and Codec shape the listening endpoint.
	Network transport.Network
	Addr    string
	Codec   wire.Codec
	// BackendAddr is this node's local datalet.
	BackendAddr string
	// PoolSize is connections per target (default 2).
	PoolSize int
}

// Server is one running proxy node.
type Server struct {
	cfg      Config
	listener transport.Listener
	local    *datalet.Pool

	peers *datalet.Links // peer proxies

	queue   chan wire.Request
	stopCh  chan struct{}
	mu      sync.Mutex
	conns   map[transport.Conn]struct{}
	stopped bool
	wg      sync.WaitGroup

	peerAddrsMu sync.RWMutex
	peerAddrs   []string
}

// Serve starts one proxy node; peers are wired up afterwards with SetPeers
// (matching Dynomite's seed-file bootstrap).
func Serve(cfg Config) (*Server, error) {
	if cfg.Network == nil || cfg.Codec == nil || cfg.BackendAddr == "" {
		return nil, errors.New("dynomite: Network, Codec and BackendAddr are required")
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 2
	}
	local, err := datalet.DialPool(cfg.Network, cfg.BackendAddr, cfg.Codec, cfg.PoolSize)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		local:  local,
		peers:  datalet.NewLinks(cfg.Network, cfg.PoolSize, 0),
		queue:  make(chan wire.Request, 4096),
		stopCh: make(chan struct{}),
		conns:  map[transport.Conn]struct{}{},
	}
	l, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		local.Close()
		return nil, err
	}
	s.listener = l
	s.wg.Add(2)
	go s.acceptLoop()
	go s.replicationPump()
	return s, nil
}

// Addr returns this node's address.
func (s *Server) Addr() string { return s.listener.Addr() }

// SetPeers installs the peer proxy addresses (excluding self).
func (s *Server) SetPeers(addrs []string) {
	s.peerAddrsMu.Lock()
	s.peerAddrs = append([]string(nil), addrs...)
	s.peerAddrsMu.Unlock()
}

// Close stops the node.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	close(s.stopCh)
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	_ = s.listener.Close()
	s.wg.Wait()
	_ = s.peers.Close()
	return s.local.Close()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn transport.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var req wire.Request
	var resp wire.Response
	for {
		req.Reset()
		if err := s.cfg.Codec.ReadRequest(br, &req); err != nil {
			if err != io.EOF {
				return
			}
			return
		}
		resp.Reset()
		resp.ID = req.ID
		s.handle(&req, &resp)
		resp.ID = req.ID
		if err := s.cfg.Codec.WriteResponse(bw, &resp); err != nil {
			return
		}
	}
}

func (s *Server) handle(req *wire.Request, resp *wire.Response) {
	switch req.Op {
	case wire.OpPut, wire.OpDel:
		// Apply locally (local version assignment), ack, replicate async.
		fwd := *req
		fwd.Version = 0
		if err := s.local.Do(&fwd, resp); err != nil {
			resp.Reset()
			resp.ID = req.ID
			resp.Status = wire.StatusUnavailable
			resp.Err = "dynomite: backend: " + err.Error()
			return
		}
		rec := *req
		rec.Key = append([]byte(nil), req.Key...)
		rec.Value = append([]byte(nil), req.Value...)
		select {
		case s.queue <- rec:
		default:
			// Queue overflow drops the propagation, exactly the
			// at-most-once weakness anti-entropy papers point at.
		}
	case wire.OpReplPut, wire.OpReplDel:
		// Peer propagation: apply with LOCAL version assignment — this
		// is Dynomite's conflict window in action.
		fwd := *req
		if fwd.Op == wire.OpReplPut {
			fwd.Op = wire.OpPut
		} else {
			fwd.Op = wire.OpDel
		}
		fwd.Version = 0
		if err := s.local.Do(&fwd, resp); err != nil {
			resp.Reset()
			resp.ID = req.ID
			resp.Status = wire.StatusUnavailable
			resp.Err = err.Error()
		}
	default:
		// Reads and everything else serve from the local backend.
		fwd := *req
		if err := s.local.Do(&fwd, resp); err != nil {
			resp.Reset()
			resp.ID = req.ID
			resp.Status = wire.StatusUnavailable
			resp.Err = "dynomite: backend: " + err.Error()
		}
	}
}

// replicationPump forwards queued writes to every peer proxy.
func (s *Server) replicationPump() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case rec := <-s.queue:
			s.peerAddrsMu.RLock()
			peers := s.peerAddrs
			s.peerAddrsMu.RUnlock()
			for _, addr := range peers {
				s.sendToPeer(addr, rec)
			}
		}
	}
}

func (s *Server) sendToPeer(addr string, rec wire.Request) {
	fwd := rec
	if fwd.Op == wire.OpPut {
		fwd.Op = wire.OpReplPut
	} else if fwd.Op == wire.OpDel {
		fwd.Op = wire.OpReplDel
	}
	var resp wire.Response
	for attempt := 0; attempt < 3; attempt++ {
		if s.peers.To(addr, s.cfg.Codec).Do(&fwd, &resp) == nil {
			return
		}
		select {
		case <-s.stopCh:
			return
		case <-time.After(time.Duration(attempt+1) * 10 * time.Millisecond):
		}
	}
}
