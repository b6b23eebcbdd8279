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
	"log"
	"sync"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/metrics"
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

// Accept errors other than the listener closing; the loop retries them.
var acceptErrs = metrics.Default.Counter("bespokv_baseline_accept_errors_total", "system", "dynomite")

// Server is one running proxy node.
type Server struct {
	cfg   Config
	addr  string
	srv   *transport.Server
	conn  wire.ConnHandler
	local *datalet.Pool

	peers *datalet.Links // peer proxies

	queue  chan wire.Request
	stop   sync.Once
	stopCh chan struct{}
	pump   sync.WaitGroup // the replication pump

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
		srv:    transport.NewServer(),
	}
	s.conn = wire.ConnHandler{Codec: cfg.Codec, Node: "dynomite", Layer: "dynomite", Handle: s.handle}
	l, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		local.Close()
		return nil, err
	}
	s.addr = l.Addr()
	s.srv.Serve(l, func(err error) {
		acceptErrs.Inc()
		log.Printf("dynomite: accept on %s: %v", l.Addr(), err)
	}, func(conn transport.Conn) { _ = wire.ServeConn(conn, &s.conn) })
	s.pump.Add(1)
	go s.replicationPump()
	return s, nil
}

// Addr returns this node's address.
func (s *Server) Addr() string { return s.addr }

// SetPeers installs the peer proxy addresses (excluding self).
func (s *Server) SetPeers(addrs []string) {
	s.peerAddrsMu.Lock()
	s.peerAddrs = append([]string(nil), addrs...)
	s.peerAddrsMu.Unlock()
}

// Close stops the node.
func (s *Server) Close() error {
	s.stop.Do(func() {
		close(s.stopCh)
		_ = s.srv.Close()
		s.pump.Wait()
		_ = s.peers.Close()
		_ = s.local.Close()
	})
	return nil
}

func (s *Server) handle(req *wire.Request, resp *wire.Response, _ *bufio.Writer) (streamed bool, err error) {
	switch req.Op {
	case wire.OpPut, wire.OpDel:
		// Apply locally (local version assignment), ack, replicate async.
		fwd := *req
		fwd.Version = 0
		if err := s.local.Do(&fwd, resp); err != nil {
			resp.Reset()
			resp.Status = wire.StatusUnavailable
			resp.Err = "dynomite: backend: " + err.Error()
			return false, nil
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
			resp.Status = wire.StatusUnavailable
			resp.Err = err.Error()
		}
	default:
		// Reads and everything else serve from the local backend.
		fwd := *req
		if err := s.local.Do(&fwd, resp); err != nil {
			resp.Reset()
			resp.Status = wire.StatusUnavailable
			resp.Err = "dynomite: backend: " + err.Error()
		}
	}
	return false, nil
}

// replicationPump forwards queued writes to every peer proxy.
func (s *Server) replicationPump() {
	defer s.pump.Done()
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
