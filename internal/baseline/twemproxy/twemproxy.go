// Package twemproxy reimplements the Twitter twemproxy baseline used in
// Fig. 11: a stateless sharding-only proxy (Table I: sharding yes,
// replication no, single topology/consistency). Requests are consistent-
// hashed to one backend datalet and relayed verbatim; because the proxy
// adds no replication or consistency work, it sets the upper bound that
// bespokv's MS+EC should land slightly below — exactly the paper's
// observation.
package twemproxy

import (
	"bufio"
	"errors"
	"log"

	"bespokv/internal/datalet"
	"bespokv/internal/metrics"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// Config configures a proxy.
type Config struct {
	// Network and Addr select the listening endpoint.
	Network transport.Network
	Addr    string
	// Codec is spoken on both sides (twemproxy speaks the backend's
	// protocol natively).
	Codec wire.Codec
	// Backends are the datalet addresses to shard across.
	Backends []string
	// PoolSize is connections per backend (default 2).
	PoolSize int
}

// Accept errors other than the listener closing; the loop retries them.
var acceptErrs = metrics.Default.Counter("bespokv_baseline_accept_errors_total", "system", "twemproxy")

// Server is a running proxy.
type Server struct {
	cfg   Config
	ring  *topology.Ring
	addr  string
	srv   *transport.Server
	conn  wire.ConnHandler
	pools []*datalet.Pool
}

// Serve starts a proxy.
func Serve(cfg Config) (*Server, error) {
	if cfg.Network == nil || cfg.Codec == nil || len(cfg.Backends) == 0 {
		return nil, errors.New("twemproxy: Network, Codec and Backends are required")
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 2
	}
	s := &Server{
		cfg:  cfg,
		ring: topology.BuildRingFromIDs(cfg.Backends, 160),
		srv:  transport.NewServer(),
	}
	s.conn = wire.ConnHandler{Codec: cfg.Codec, Node: "twemproxy", Layer: "twemproxy", Handle: s.relay}
	for _, addr := range cfg.Backends {
		p, err := datalet.DialPool(cfg.Network, addr, cfg.Codec, cfg.PoolSize)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.pools = append(s.pools, p)
	}
	l, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.addr = l.Addr()
	s.srv.Serve(l, func(err error) {
		acceptErrs.Inc()
		log.Printf("twemproxy: accept on %s: %v", l.Addr(), err)
	}, func(conn transport.Conn) { _ = wire.ServeConn(conn, &s.conn) })
	return s, nil
}

// Addr returns the proxy's address.
func (s *Server) Addr() string { return s.addr }

// Close stops the proxy.
func (s *Server) Close() error {
	_ = s.srv.Close()
	for _, p := range s.pools {
		_ = p.Close()
	}
	return nil
}

// relay answers one request from the backend its key hashes to.
func (s *Server) relay(req *wire.Request, resp *wire.Response, _ *bufio.Writer) (streamed bool, err error) {
	fwd := *req
	fwd.Epoch = 0
	if err := s.pools[s.ring.Lookup(req.Key)].Do(&fwd, resp); err != nil {
		resp.Reset()
		resp.Status = wire.StatusUnavailable
		resp.Err = "twemproxy: backend: " + err.Error()
	}
	return false, nil
}
