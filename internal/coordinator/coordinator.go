// Package coordinator implements the bespokv control-plane metadata
// service — the reproduction's stand-in for the paper's ZooKeeper-based
// coordinator. It owns the versioned cluster Map, tracks node liveness via
// heartbeats, elects new masters, orchestrates failover onto registered
// standby pairs, and drives topology/consistency transitions. Clients and
// controlets observe changes through long-poll watches and best-effort map
// pushes to every controlet's control endpoint.
package coordinator

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"bespokv/internal/rpc"
	"bespokv/internal/rsm"
	"bespokv/internal/telemetry"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
)

// Config configures a coordinator server.
type Config struct {
	// Network and Addr select the RPC listening endpoint.
	Network transport.Network
	Addr    string
	// HeartbeatTimeout declares a node dead after this silence (default
	// 2s; the paper uses a 5s heartbeat interval on its testbed). The
	// failure detector sweeps every HeartbeatTimeout/4. It is also how
	// long a client may trust a map granted via LeaseMap for direct
	// datalet reads (a client's trust window never outlives the failure
	// detector's), and how long a node's telemetry stays fresh
	// (staleness tracks the failure detector's view of liveness).
	HeartbeatTimeout time.Duration
	// DisableFailover turns the failure detector off (benchmarks that
	// kill nodes deliberately re-enable it per-experiment).
	DisableFailover bool
	// SLOs is the alerting policy the telemetry aggregator enforces
	// (nil installs telemetry.DefaultObjectives; empty non-nil disables).
	SLOs []telemetry.Objective
	// Replication makes this coordinator one member of a replicated
	// control-plane group (see ReplicationConfig); nil is a group of one at
	// Addr that keeps nothing, the single-process coordinator.
	Replication *ReplicationConfig
	// Logf receives diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Server is a running coordinator.
type Server struct {
	cfg  Config
	rpc  *rpc.Server
	addr string

	// rsm replicates cur and standbys across the group. proposeMu
	// serializes map mutators (build-new-map then install must be atomic
	// against each other, and the install may block on a replicated round
	// trip, so s.mu cannot cover it).
	rsm       *rsm.Node
	proposeMu sync.Mutex

	mu        sync.Mutex
	cur       *topology.Map
	lastSeen  map[string]time.Time
	suspended map[string]bool // nodes already failed over
	// tookOver is the term of the last take-over (onLeaderChange) this
	// member ran, 0 before the first; the detector sweeps only in it.
	tookOver  uint64
	standbys  []topology.Node
	epochCh   chan struct{} // closed and replaced on every epoch bump
	migrating *migrationRun // active rebalance, nil when idle (see rebalance.go)
	lastRun   *migrationRun // most recent finished rebalance, for status
	migSeq    uint64
	stopCh    chan struct{}
	stopped   bool
	wg        sync.WaitGroup

	// dialCtl lets tests fake controlet control connections; defaults to
	// rpc.DialClient over cfg.Network.
	dialCtl func(addr string) (ctlConn, error)

	// agg collects node telemetry reports into the cluster-wide view
	// (/clusterz, `bespokv-cli top`) and drives SLO alerting.
	agg *telemetry.Aggregator
}

// ctlConn is the subset of rpc.Client the coordinator needs.
type ctlConn interface {
	Call(method string, args, reply any) error
	Close() error
}

// Heartbeat is the liveness report a controlet sends for its pair.
type Heartbeat struct {
	// NodeID identifies the controlet–datalet pair.
	NodeID string `json:"node"`
	// DataletOK reports the controlet's view of its local datalet.
	DataletOK bool `json:"datalet_ok"`
}

// HeartbeatReply tells the controlet the current epoch so it can refresh.
type HeartbeatReply struct {
	Epoch uint64 `json:"epoch"`
}

// WatchArgs long-polls for a map newer than Since.
type WatchArgs struct {
	Since     uint64 `json:"since"`
	TimeoutMs int    `json:"timeout_ms"`
}

// LeaseReply carries a map plus the window during which the recipient may
// trust it for coordinator-free direct datalet reads.
type LeaseReply struct {
	Map   *topology.Map `json:"map"`
	TTLMs int           `json:"ttl_ms"`
}

// TransitionArgs starts a topology/consistency switch.
type TransitionArgs struct {
	To topology.Mode `json:"to"`
	// NewShards carries the new-mode controlets, parallel to the current
	// shards (same datalets, new controlet/control addresses).
	NewShards []topology.Shard `json:"new_shards"`
}

// Serve starts a coordinator and returns once it is listening.
func Serve(cfg Config) (*Server, error) {
	if cfg.Network == nil {
		return nil, errors.New("coordinator: Network is required")
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.SLOs == nil {
		cfg.SLOs = telemetry.DefaultObjectives()
	}
	s := &Server{
		cfg:       cfg,
		rpc:       rpc.NewServer(),
		lastSeen:  map[string]time.Time{},
		suspended: map[string]bool{},
		epochCh:   make(chan struct{}),
		stopCh:    make(chan struct{}),
		agg: telemetry.NewAggregator(telemetry.AggregatorOptions{
			StaleAfter: cfg.HeartbeatTimeout,
			Objectives: cfg.SLOs,
		}),
	}
	s.dialCtl = func(addr string) (ctlConn, error) {
		return rpc.DialClient(cfg.Network, addr)
	}
	s.rpc.Name = "coordinator"
	rpc.HandleFunc(s.rpc, "GetMap", s.handleGetMap)
	rpc.HandleFunc(s.rpc, "WatchMap", s.handleWatchMap)
	rpc.HandleFunc(s.rpc, "LeaseMap", s.handleLeaseMap)
	rpc.HandleFunc(s.rpc, "SetMap", s.handleSetMap)
	rpc.HandleFunc(s.rpc, "Heartbeat", s.handleHeartbeat)
	rpc.HandleFunc(s.rpc, "RegisterStandby", s.handleRegisterStandby)
	rpc.HandleFunc(s.rpc, "LeaderElect", s.handleLeaderElect)
	rpc.HandleFunc(s.rpc, "BeginTransition", s.handleBeginTransition)
	rpc.HandleFunc(s.rpc, "CompleteTransition", s.handleCompleteTransition)
	rpc.HandleFunc(s.rpc, "Rejoin", s.handleRejoin)
	rpc.HandleFunc(s.rpc, "JoinNode", s.handleJoinNode)
	rpc.HandleFunc(s.rpc, "DrainNode", s.handleDrainNode)
	rpc.HandleFunc(s.rpc, "Rebalance", s.handleRebalance)
	rpc.HandleFunc(s.rpc, "MigrationStatus", s.handleMigrationStatus)
	rpc.HandleFunc(s.rpc, "TelemetryReport", s.handleTelemetryReport)
	rpc.HandleFunc(s.rpc, "Telemetry", s.handleTelemetry)
	l, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.addr = l.Addr()
	// Held until s.rsm is set: onLeaderChange, which a group of one runs
	// as it starts, takes it before anything that proposes.
	s.proposeMu.Lock()
	s.rsm, err = rsm.StartGroup(cfg.Replication, s.addr, s.rpc, cfg.Network, coordSM{s}, s.onLeaderChange, cfg.Logf)
	s.proposeMu.Unlock()
	if err != nil {
		l.Close()
		return nil, err
	}
	s.rpc.ServeListener(l) // calls find the node in place
	if !cfg.DisableFailover {
		s.wg.Add(1)
		go s.failureDetector()
	}
	return s, nil
}

// Addr returns the coordinator's RPC address.
func (s *Server) Addr() string { return s.addr }

// Telemetry exposes the aggregator (obs endpoints, tests).
func (s *Server) Telemetry() *telemetry.Aggregator { return s.agg }

// TelemetryReportArgs carries one controlet's telemetry tick: its own
// snapshot plus (usually) its local datalet's.
type TelemetryReportArgs struct {
	Reports []telemetry.NodeSnapshot `json:"reports"`
}

func (s *Server) handleTelemetryReport(args TelemetryReportArgs) (struct{}, error) {
	// Telemetry rides the heartbeat tick; keep the aggregated view on the
	// leader so /clusterz and SLO alerting see the whole cluster.
	if err := s.leaderCheck(); err != nil {
		return struct{}{}, err
	}
	s.agg.Report(args.Reports...)
	return struct{}{}, nil
}

func (s *Server) handleTelemetry(struct{}) (telemetry.ClusterSnapshot, error) {
	return s.agg.Cluster(), nil
}

// Close stops the coordinator.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	close(s.stopCh)
	s.mu.Unlock()
	if err := s.rsm.Close(); err != nil {
		s.cfg.Logf("coordinator: rsm close: %v", err)
	}
	err := s.rpc.Close()
	s.wg.Wait()
	return err
}

func (s *Server) handleGetMap(struct{}) (*topology.Map, error) {
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	if cur == nil {
		// A replicated follower that hasn't applied any map yet redirects
		// instead of claiming the cluster is empty — the leader may have
		// committed an install this member hasn't caught up to.
		if err := s.leaderCheck(); err != nil {
			return nil, err
		}
		return nil, errors.New("coordinator: no map installed")
	}
	return cur.Clone(), nil
}

func (s *Server) handleWatchMap(args WatchArgs) (*topology.Map, error) {
	timeout := time.Duration(args.TimeoutMs) * time.Millisecond
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		cur := s.cur
		ch := s.epochCh
		s.mu.Unlock()
		if cur != nil && cur.Epoch > args.Since {
			return cur.Clone(), nil
		}
		select {
		case <-ch:
		case <-deadline.C:
			if cur == nil {
				return nil, errors.New("coordinator: no map installed")
			}
			return cur.Clone(), nil
		case <-s.stopCh:
			return nil, errors.New("coordinator: shutting down")
		}
	}
}

// handleLeaseMap is WatchMap plus a lease grant: the reply's map comes with
// a TTL during which the client may read datalets directly (epoch-fenced at
// the datalet) without consulting the coordinator. Renewal rides the same
// long-poll the watch loop already runs, so leased clients cost the
// coordinator nothing beyond their existing watch.
func (s *Server) handleLeaseMap(args WatchArgs) (LeaseReply, error) {
	m, err := s.handleWatchMap(args)
	if err != nil {
		return LeaseReply{}, err
	}
	return LeaseReply{Map: m, TTLMs: int(s.cfg.HeartbeatTimeout / time.Millisecond)}, nil
}

func (s *Server) handleSetMap(m *topology.Map) (HeartbeatReply, error) {
	if m == nil || len(m.Shards) == 0 {
		return HeartbeatReply{}, errors.New("coordinator: empty map")
	}
	if !m.Mode.Valid() {
		return HeartbeatReply{}, fmt.Errorf("coordinator: invalid mode %s", m.Mode)
	}
	if err := s.leaderCheck(); err != nil {
		return HeartbeatReply{}, err
	}
	s.proposeMu.Lock()
	defer s.proposeMu.Unlock()
	s.mu.Lock()
	// The new epoch continues past both the current history and the
	// submitted map's own epoch, so a promoted follower seeding a
	// mirrored map keeps the cluster's epoch sequence monotonic.
	epoch := m.Epoch + 1
	if s.cur != nil && s.cur.Epoch+1 > epoch {
		epoch = s.cur.Epoch + 1
	}
	s.mu.Unlock()
	m = m.Clone()
	m.Epoch = epoch
	if _, err := s.installMap(m, false); err != nil {
		return HeartbeatReply{}, err
	}
	s.mu.Lock()
	now := time.Now()
	for _, shard := range m.Shards {
		for _, n := range shard.Replicas {
			s.lastSeen[n.ID] = now
			delete(s.suspended, n.ID)
		}
	}
	s.mu.Unlock()
	s.pushMap()
	return HeartbeatReply{Epoch: epoch}, nil
}

// bumpLocked wakes watchers; caller holds mu and has already set cur.
func (s *Server) bumpLocked() {
	coordEpoch.Set(int64(s.cur.Epoch))
	close(s.epochCh)
	s.epochCh = make(chan struct{})
}

func (s *Server) handleHeartbeat(hb Heartbeat) (HeartbeatReply, error) {
	// Heartbeats must land on the leader: it runs the failure detector,
	// and a controlet heartbeating a follower would never self-fence.
	if err := s.leaderCheck(); err != nil {
		return HeartbeatReply{}, err
	}
	coordHeartbeats.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !hb.DataletOK {
		// A controlet reporting a dead datalet is treated as a pair
		// failure: stop refreshing so the detector fails it over.
		s.cfg.Logf("coordinator: node %s reports datalet failure", hb.NodeID)
	} else {
		s.lastSeen[hb.NodeID] = time.Now()
	}
	var epoch uint64
	if s.cur != nil {
		epoch = s.cur.Epoch
	}
	return HeartbeatReply{Epoch: epoch}, nil
}

// LastSeen reports when the failure detector last heard a heartbeat from
// nodeID with its datalet OK. Exposed for tests.
func (s *Server) LastSeen(nodeID string) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.lastSeen[nodeID]
	return t, ok
}

func (s *Server) handleRegisterStandby(n topology.Node) (struct{}, error) {
	if n.ID == "" || n.ControletAddr == "" || n.DataletAddr == "" {
		return struct{}{}, errors.New("coordinator: standby needs ID, controlet and datalet addresses")
	}
	if err := s.leaderCheck(); err != nil {
		return struct{}{}, err
	}
	return struct{}{}, s.addStandby(n)
}

// LeaderElectArgs asks for a new master for a shard (excluding a node).
type LeaderElectArgs struct {
	ShardID string `json:"shard"`
	Exclude string `json:"exclude,omitempty"`
}

// handleLeaderElect promotes the first surviving replica of the shard to
// the head of its replica list and returns the new leader.
func (s *Server) handleLeaderElect(args LeaderElectArgs) (topology.Node, error) {
	if err := s.leaderCheck(); err != nil {
		return topology.Node{}, err
	}
	s.proposeMu.Lock()
	defer s.proposeMu.Unlock()
	s.mu.Lock()
	if s.cur == nil {
		s.mu.Unlock()
		return topology.Node{}, errors.New("coordinator: no map installed")
	}
	m := s.cur.Clone()
	s.mu.Unlock()
	for si := range m.Shards {
		if m.Shards[si].ID != args.ShardID {
			continue
		}
		reps := m.Shards[si].Replicas
		for ri, n := range reps {
			if n.ID == args.Exclude {
				continue
			}
			// Move the winner to the front.
			winner := reps[ri]
			copy(reps[1:ri+1], reps[:ri])
			reps[0] = winner
			m.Epoch++
			if _, err := s.installMap(m, false); err != nil {
				return topology.Node{}, err
			}
			go s.pushMap()
			return winner, nil
		}
		return topology.Node{}, fmt.Errorf("coordinator: shard %s has no electable replica", args.ShardID)
	}
	return topology.Node{}, fmt.Errorf("coordinator: unknown shard %s", args.ShardID)
}
