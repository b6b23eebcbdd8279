// Package controlet implements the bespokv control plane's per-node proxy:
// the component that takes a distribution-unaware datalet and gives it
// sharding, replication, a topology (master-slave or active-active), a
// consistency model (strong or eventual), failover recovery, and seamless
// online mode transitions. One controlet fronts one datalet (the paper's
// one-to-one mapping); a set of controlets plus the coordinator, DLM and
// shared log form a complete distributed KV store.
//
// The four pre-built modes follow §IV and Appendix C of the paper:
//
//   - MS+SC: chain replication (CRAQ-style head ack after tail ack);
//     strong reads at the tail.
//   - MS+EC: master commits locally, acks, propagates asynchronously.
//   - AA+SC: write-all under the key's slot lease from the DLM, which the
//     slot's owner keeps across operations.
//   - AA+EC: every write is sequenced through the shared log; replicas
//     apply in log order, so concurrent multi-master writes converge.
package controlet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/coordinator"
	"bespokv/internal/datalet"
	"bespokv/internal/migrate"
	"bespokv/internal/overload"
	"bespokv/internal/rpc"
	"bespokv/internal/telemetry"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// Config configures one controlet.
type Config struct {
	// NodeID and ShardID locate this controlet in the cluster map.
	NodeID  string
	ShardID string
	// Network carries this controlet's client, peer-controlet,
	// peer-datalet and control traffic.
	Network transport.Network
	// DataAddr and CtlAddr are the listen addresses for the data path
	// and the control RPC endpoint.
	DataAddr string
	CtlAddr  string
	// Codec is the data-path protocol toward clients and peer
	// controlets (normally binary).
	Codec wire.Codec
	// DataletAddr and DataletCodec reach the local datalet; the codec
	// may differ from the client-facing one (e.g. a text-protocol
	// tRedis-style datalet behind a binary front). DataletAddr is an
	// address on Network — the one the cluster map advertises to peers,
	// recovery and direct-read clients — or "unix:<path>" for a datalet
	// reached over a socket file only.
	DataletAddr  string
	DataletCodec wire.Codec
	// LocalDatalet, when set, is where this controlet itself reaches the
	// datalet on its own machine, in place of DataletAddr: "unix:<path>"
	// for the socket file a collocated datalet listens on beside its
	// advertised address (datalet.Config.LocalAddr), the paper's
	// one-pair-per-machine layout where the local hop is IPC and only
	// cross-node hops pay the network.
	LocalDatalet string
	// Mode is the initial topology+consistency pair this controlet
	// implements.
	Mode topology.Mode
	// CoordinatorAddr, DLMAddr and SharedLogAddr locate the control
	// services. The coordinator is optional for static single-shard
	// setups; the DLM is required for AA+SC; the shared log for AA+EC.
	CoordinatorAddr string
	DLMAddr         string
	SharedLogAddr   string
	// HeartbeatInterval paces liveness reports (default 250ms; the
	// paper's testbed used 5s — scaled down for single-box runs).
	HeartbeatInterval time.Duration
	// FenceTimeout, when > 0 (and CoordinatorAddr is set), makes the
	// controlet self-fence: if no heartbeat has been acknowledged for this
	// long, MS-mode writes and strong reads answer StatusUnavailable until
	// contact resumes. Set it to the coordinator's failure-detection
	// timeout and a partitioned head/tail stops serving at the same moment
	// the coordinator starts promoting its replacement — closing the
	// window where an isolated tail keeps answering strong reads that no
	// longer reflect the surviving chain.
	FenceTimeout time.Duration
	// LockTTL bounds AA+SC leases (default 2s).
	LockTTL time.Duration
	// P2PRouting enables the §IV-E P2P-style topology: this controlet
	// accepts requests for keys it does not own and routes them to the
	// owning shard via the cluster map (see p2p.go).
	P2PRouting bool
	// TelemetryInterval is the workload-stats window width (default 1s).
	// Snapshots (including the local datalet's, pulled over OpTelemetry)
	// ride every heartbeat tick to the coordinator's aggregator.
	TelemetryInterval time.Duration
	// MaxInflight caps concurrently executing client data ops (admission
	// control); requests beyond it queue briefly and are shed with
	// StatusOverloaded once the queue delay betrays overload. Control
	// traffic (heartbeat plumbing, epoch leases, stats) and internal
	// replication ops are never gated — a hot data path cannot starve the
	// control plane into a false failover. Default 1024; < 0 disables.
	MaxInflight int
	// ShedTarget is the CoDel queue-delay target for the shedder: data
	// ops that wait longer than this for an execution slot, persistently
	// over a control interval, start being shed. Default 5ms.
	ShedTarget time.Duration
	// Logf receives diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

const (
	// peerCallTimeout bounds every datalet/peer pipeline call: the watchdog
	// is what turns a blackholed peer into an error instead of a hung chain
	// holding the inflight lock.
	peerCallTimeout = 2 * time.Second
	// peerPoolSize is connections per peer controlet/datalet (and to the
	// local datalet).
	peerPoolSize = 2
)

// Server is a running controlet.
type Server struct {
	cfg Config
	pol policy // what cfg.Mode decides about the data path (modes.go)

	dataAddr string            // cfg.DataAddr's bound form
	srv      *transport.Server // the data-path listener and its connections
	conn     wire.ConnHandler
	ctl      *rpc.Server
	ctlAddr  string

	// The local link: network and address of the datalet this controlet
	// fronts, and the pool dialled on them — once (see Serve). Peer
	// datalets are reached on cfg.Network at their map-advertised addresses
	// instead.
	localNet  transport.Network
	localAddr string
	local     *datalet.Pool

	clock atomic.Uint64 // Lamport clock for LWW versions

	mapMu   sync.RWMutex
	curMap  *topology.Map
	curRing *topology.Ring

	// Self-healing links to peers on cfg.Network: peer controlets at their
	// data addresses in cfg.Codec, and peer datalets at their map-advertised
	// addresses in each datalet's own protocol. Two sets only so /statusz
	// can tell them apart.
	peers  *datalet.Links
	dPeers *datalet.Links

	// MS+EC asynchronous propagation (see async.go).
	prop *propagator

	// AA+EC shared-log plumbing (see aaec.go).
	aaec *logApplier

	// AA+SC lock client and slot leases (see aasc.go).
	locks *lockClient

	// draining is set while a transition drain is in flight; new writes
	// are forwarded to the new-mode controlet.
	draining atomic.Bool

	// mig is the active shard migration, nil when idle (see migrate.go).
	mig atomic.Pointer[migrationState]

	// inflight tracks executing client writes: handlers hold the read
	// side; Quiesce takes the write side to wait for all of them — the
	// barrier the coordinator needs between installing a new chain and
	// snapshotting for standby backfill.
	inflight sync.RWMutex

	// lastBeat is the wall time (UnixNano) of the last heartbeat the
	// coordinator acknowledged; fenced() compares it against FenceTimeout.
	lastBeat atomic.Int64

	// tele is the per-op record wire.ServeConn stamps for every answered
	// frame: client-entry ops by class, internal replication traffic in
	// ClassOther so shard merges never double-count.
	tele *telemetry.Recorder

	// admit is the hop prologue in front of dispatch. Its gate admits
	// client data ops (nil = admission control disabled); control and
	// internal replication lanes bypass it.
	admit *overload.Admission

	// wg counts the goroutines that are not serving a connection: the
	// heartbeat loop, the propagation loops, the log applier.
	wg      sync.WaitGroup
	stopCh  chan struct{}
	stopped atomic.Bool
}

// Serve starts a controlet and returns once both listeners are up.
func Serve(cfg Config) (*Server, error) {
	if cfg.Network == nil || cfg.Codec == nil {
		return nil, errors.New("controlet: Network and Codec are required")
	}
	if cfg.DataletCodec == nil {
		cfg.DataletCodec = cfg.Codec
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 250 * time.Millisecond
	}
	if cfg.LockTTL <= 0 {
		cfg.LockTTL = 2 * time.Second
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 1024
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	pol, ok := policies[cfg.Mode]
	if !ok {
		return nil, fmt.Errorf("controlet: invalid mode %s", cfg.Mode)
	}
	link := cfg.LocalDatalet
	if link == "" {
		link = cfg.DataletAddr
	}
	localNet, localAddr := transport.Resolve(cfg.Network, link)
	// The local link is a Pool, dialled once, and not a datalet.Link on
	// purpose. A datalet restarted inside HeartbeatTimeout comes back with
	// whatever its engine kept — nothing, on a non-durable ht — and a link
	// that re-dialled it would put that back in service with no failover:
	// the coordinator only notices a datalet whose controlet reports it
	// down for that long. Until a controlet knows what its datalet has
	// applied and can ask for the rest (ROADMAP item 8), staying down until
	// the standby join replaces the node is the safe answer.
	local, err := datalet.DialPool(localNet, localAddr, cfg.DataletCodec, peerPoolSize)
	if err != nil {
		return nil, fmt.Errorf("controlet: dial local datalet: %w", err)
	}
	local.SetCallTimeout(peerCallTimeout)
	s := &Server{
		cfg:       cfg,
		pol:       pol,
		localNet:  localNet,
		localAddr: localAddr,
		local:     local,
		peers:     datalet.NewLinks(cfg.Network, peerPoolSize, peerCallTimeout),
		dPeers:    datalet.NewLinks(cfg.Network, peerPoolSize, peerCallTimeout),
		srv:       transport.NewServer(),
		stopCh:    make(chan struct{}),
		tele:      ctlLayer.NewRecorder(telemetry.Options{Interval: cfg.TelemetryInterval}),
		admit: overload.NewAdmission("controlet",
			overload.NewGate(overload.Config{MaxInflight: cfg.MaxInflight, Target: cfg.ShedTarget})),
	}
	s.conn = wire.ConnHandler{
		Codec: cfg.Codec, Node: cfg.NodeID, Layer: "controlet",
		Handle: s.handleConn, Record: s.tele.RecordOp, Epoch: s.epoch,
	}
	// Seed the clock so fresh controlets never reissue old versions
	// after recovery (coarse wall-clock epoch in the high bits, Lamport
	// counter in the low 32).
	s.clock.Store(uint64(time.Now().Unix()) << 32)
	// A fresh controlet starts unfenced; it has a full FenceTimeout to
	// land its first heartbeat.
	s.lastBeat.Store(time.Now().UnixNano())

	if pol.start != nil {
		if err := pol.start(s); err != nil {
			s.tele.Close()
			return nil, err
		}
	}

	// Control RPC endpoint.
	s.ctl = rpc.NewServer()
	rpc.HandleFunc(s.ctl, "UpdateMap", s.handleUpdateMap)
	rpc.HandleFunc(s.ctl, "Recover", s.handleRecover)
	rpc.HandleFunc(s.ctl, "LogCursor", s.handleLogCursor)
	rpc.HandleFunc(s.ctl, "Drain", s.handleDrain)
	rpc.HandleFunc(s.ctl, "Quiesce", s.handleQuiesce)
	rpc.HandleFunc(s.ctl, "Reconcile", s.handleReconcile)
	rpc.HandleFunc(s.ctl, "Stats", s.handleStats)
	rpc.HandleFunc(s.ctl, "MigrateOut", s.handleMigrateOut)
	rpc.HandleFunc(s.ctl, "MigrateStream", s.handleMigrateStream)
	rpc.HandleFunc(s.ctl, "MigrateCutover", s.handleMigrateCutover)
	rpc.HandleFunc(s.ctl, "MigrateFloor", s.handleMigrateFloor)
	rpc.HandleFunc(s.ctl, "MigrateGC", s.handleMigrateGC)
	rpc.HandleFunc(s.ctl, "MigrateAbort", s.handleMigrateAbort)
	rpc.HandleFunc(s.ctl, "MigrateStatus", s.handleMigrateStatus)
	ctlAddr, err := s.ctl.Serve(cfg.Network, cfg.CtlAddr)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.ctlAddr = ctlAddr

	// Data-path listener.
	l, err := cfg.Network.Listen(cfg.DataAddr)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.dataAddr = l.Addr()
	s.srv.Serve(l, func(err error) {
		ctlAcceptErrs.Inc()
		cfg.Logf("controlet %s: accept: %v", cfg.NodeID, err)
	}, s.serveConn)

	if cfg.CoordinatorAddr != "" {
		// Fetch the initial map synchronously (best effort) so a
		// just-booted controlet can serve before its first heartbeat; the
		// heartbeat loop keeps the client.
		cc, err := coordinator.DialCoordinator(cfg.Network, cfg.CoordinatorAddr)
		if err == nil {
			if m, err := cc.GetMap(); err == nil {
				s.SetMap(m)
			}
		}
		s.wg.Add(1)
		go s.heartbeatLoop(cc)
	}
	return s, nil
}

// DataAddr returns the bound data-path address.
func (s *Server) DataAddr() string { return s.dataAddr }

// CtlAddr returns the bound control-RPC address.
func (s *Server) CtlAddr() string { return s.ctlAddr }

// Node describes this controlet for cluster maps.
func (s *Server) Node() topology.Node {
	return topology.Node{
		ID:            s.cfg.NodeID,
		ControletAddr: s.DataAddr(),
		ControlAddr:   s.CtlAddr(),
		DataletAddr:   s.cfg.DataletAddr,
	}
}

// Close shuts the controlet down.
func (s *Server) Close() error {
	if s.stopped.Swap(true) {
		return nil
	}
	close(s.stopCh)
	// What a request handler can be parked on — the propagation queues, the
	// log combiner, a lock wait — is stopped before srv.Close waits for the
	// handlers.
	if s.ctl != nil {
		_ = s.ctl.Close()
	}
	if s.prop != nil {
		s.prop.stop()
	}
	if s.aaec != nil {
		s.aaec.stop()
	}
	if s.locks != nil {
		s.locks.close()
	}
	if ms := s.mig.Load(); ms != nil {
		ms.mover.Stop()
	}
	_ = s.srv.Close()
	s.wg.Wait()
	s.tele.Close()
	_ = s.peers.Close()
	_ = s.dPeers.Close()
	if s.local != nil {
		_ = s.local.Close()
	}
	return nil
}

// nextVersion advances the Lamport clock.
func (s *Server) nextVersion() uint64 { return s.clock.Add(1) }

// observeVersion keeps the clock ahead of versions seen from peers.
func (s *Server) observeVersion(v uint64) {
	for {
		cur := s.clock.Load()
		if v <= cur || s.clock.CompareAndSwap(cur, v) {
			return
		}
	}
}

// SetMap installs a cluster map directly (used by static setups, tests and
// the in-process harness; coordinated clusters receive pushes instead).
func (s *Server) SetMap(m *topology.Map) {
	clone := m.Clone()
	ring := topology.BuildRing(clone)
	s.mapMu.Lock()
	installed := s.curMap == nil || m.Epoch >= s.curMap.Epoch
	if installed {
		s.curMap = clone
		s.curRing = ring
	}
	s.mapMu.Unlock()
	if installed {
		if s.locks != nil {
			s.locks.remap()
		}
		// Grant the local datalet its epoch lease so it can fence direct
		// client reads against the map that just took effect.
		s.pushEpochLease(clone.Epoch)
	}
}

// pushEpochLease grants (or refreshes) the local datalet's epoch lease so
// it can fence direct client reads. The TTL is tied to FenceTimeout: a
// partitioned pair's datalet stops serving direct reads in the same window
// its controlet self-fences. Coordinator-less static setups get a
// non-expiring lease — their epoch never moves.
func (s *Server) pushEpochLease(epoch uint64) {
	var ttl uint64
	if s.cfg.FenceTimeout > 0 && s.cfg.CoordinatorAddr != "" {
		ttl = uint64(s.cfg.FenceTimeout)
	}
	req := wire.GetRequest()
	resp := wire.GetResponse()
	defer wire.PutRequest(req)
	defer wire.PutResponse(resp)
	req.Op = wire.OpEpochSet
	req.Epoch = epoch
	req.Version = ttl
	_ = s.local.Do(req, resp) // best effort; refreshed every heartbeat
}

// Map returns the controlet's current cluster map (may be nil).
func (s *Server) Map() *topology.Map {
	s.mapMu.RLock()
	defer s.mapMu.RUnlock()
	return s.curMap
}

// myShard returns the shard containing this controlet and its position in
// the replica list. Membership is found by node ID so a standby promoted
// into any shard (whose identity it could not know at startup) resolves
// correctly; position is -1 when the node is in no shard (e.g. right after
// being failed over).
func (s *Server) myShard(m *topology.Map) (topology.Shard, int) {
	if m == nil {
		return topology.Shard{}, -1
	}
	for _, shard := range m.Shards {
		for i, n := range shard.Replicas {
			if n.ID == s.cfg.NodeID {
				return shard, i
			}
		}
	}
	if m.Transition != nil {
		// New-mode controlets live in the transition's shards until the
		// switch completes; they serve handoffs under the NEW replica
		// set (same datalets, new chain).
		for _, shard := range m.Transition.NewShards {
			for i, n := range shard.Replicas {
				if n.ID == s.cfg.NodeID {
					return shard, i
				}
			}
		}
	}
	for _, shard := range m.Shards {
		if shard.ID == s.cfg.ShardID {
			return shard, -1
		}
	}
	return topology.Shard{}, -1
}

// shardID returns the shard this controlet currently belongs to (by map
// membership, falling back to the configured shard).
func (s *Server) shardID() string {
	if shard, pos := s.myShard(s.Map()); pos >= 0 {
		return shard.ID
	}
	return s.cfg.ShardID
}

// transitionPeer returns the new-mode counterpart for this shard while a
// transition is in flight (the node writes are forwarded to).
func (s *Server) transitionPeer(m *topology.Map) (topology.Node, bool) {
	if m == nil || m.Transition == nil {
		return topology.Node{}, false
	}
	myShard, _ := s.myShard(m)
	shardID := myShard.ID
	if shardID == "" {
		shardID = s.cfg.ShardID
	}
	for _, shard := range m.Transition.NewShards {
		if shard.ID == shardID && len(shard.Replicas) > 0 {
			// Writes go to the new head/master; under AA any active
			// node works, and the head is one of them.
			return shard.Replicas[0], true
		}
	}
	return topology.Node{}, false
}

// peer returns the link to a peer controlet's data-path address.
func (s *Server) peer(addr string) *datalet.Link { return s.peers.To(addr, s.cfg.Codec) }

// peerDatalet returns the link to a peer datalet, at its map-advertised
// address and in the datalet's own protocol.
func (s *Server) peerDatalet(n topology.Node) *datalet.Link {
	return s.dPeers.To(n.DataletAddr, wire.CodecOr(n.DataletCodec, s.cfg.DataletCodec))
}

func (s *Server) serveConn(conn transport.Conn) {
	if err := wire.ServeConn(conn, &s.conn); err != nil && !s.stopped.Load() {
		s.cfg.Logf("controlet %s: read: %v", s.cfg.NodeID, err)
	}
}

// handleConn and epoch are the connection loop's hooks.
func (s *Server) handleConn(req *wire.Request, resp *wire.Response, _ *bufio.Writer) (streamed bool, err error) {
	s.dispatchAdmit(req, resp)
	return false, nil
}

func (s *Server) epoch() uint64 {
	if m := s.Map(); m != nil {
		return m.Epoch
	}
	return 0
}

// fenced reports whether this controlet has lost coordinator contact for a
// full FenceTimeout and must stop acknowledging MS writes and strong reads.
// The hazard it closes: a node isolated from clients' view of the cluster —
// coordinator unreachable but data path still up — would otherwise keep
// serving from a chain the coordinator is in the middle of replacing
// (double-acked writes at an old head, stale strong reads at an old tail).
func (s *Server) fenced() bool {
	if s.cfg.FenceTimeout <= 0 || s.cfg.CoordinatorAddr == "" {
		return false
	}
	return time.Since(time.Unix(0, s.lastBeat.Load())) > s.cfg.FenceTimeout
}

// heartbeatLoop reports liveness (including the local datalet's) to the
// coordinator and pulls fresher maps when the epoch moves, on one client for
// its lifetime: cc re-dials and follows the leader by itself, so a controlet
// that survives a partition resumes heartbeating (and unfences) after the
// heal. cc is nil when the coordinator was unreachable at boot; the loop then
// dials on its ticks until a member answers.
func (s *Server) heartbeatLoop(cc *coordinator.Client) {
	defer s.wg.Done()
	// A heartbeat that outlives its interval is useless; cap how long the
	// loop can hang on a partitioned coordinator so fencing is detected on
	// time and the loop keeps its cadence.
	callTimeout := 2 * s.cfg.HeartbeatInterval
	if s.cfg.FenceTimeout > 0 && callTimeout > s.cfg.FenceTimeout/2 {
		callTimeout = s.cfg.FenceTimeout / 2
	}
	if cc != nil {
		cc.SetCallTimeout(callTimeout)
	}
	defer func() {
		if cc != nil {
			cc.Close()
		}
	}()
	ticker := time.NewTicker(s.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-ticker.C:
		}
		if cc == nil {
			var err error
			if cc, err = coordinator.DialCoordinator(s.cfg.Network, s.cfg.CoordinatorAddr); err != nil {
				ctlHeartbeatErrs.Inc()
				continue
			}
			cc.SetCallTimeout(callTimeout)
		}
		dataletOK := s.local.Get().Ping() == nil
		ctlHeartbeats.Inc()
		epoch, err := cc.Heartbeat(s.cfg.NodeID, dataletOK)
		if err != nil {
			ctlHeartbeatErrs.Inc()
			continue
		}
		s.lastBeat.Store(time.Now().UnixNano())
		cur := s.Map()
		if cur == nil || epoch > cur.Epoch {
			if m, err := cc.GetMap(); err == nil {
				s.SetMap(m)
			}
		} else {
			// Same epoch: refresh the datalet's lease TTL so direct reads
			// keep flowing exactly as long as this controlet is unfenced.
			s.pushEpochLease(cur.Epoch)
		}
		// Telemetry rides the already-open heartbeat connection; a failed
		// report costs nothing but this tick's freshness at the aggregator.
		if err := cc.TelemetryReport(s.telemetrySnapshots()); err != nil {
			ctlTelemetryErrs.Inc()
		} else {
			ctlTelemetryReports.Inc()
		}
	}
}

// telemetrySnapshots assembles this tick's report: the controlet's own
// snapshot plus the local datalet's (pulled over OpTelemetry — direct-path
// reads bypass the controlet, so only the datalet can count them). The
// controlet stamps shard/mode/epoch onto the datalet snapshot because the
// datalet is distribution-unaware by design.
func (s *Server) telemetrySnapshots() []telemetry.NodeSnapshot {
	now := time.Now()
	var mode string
	var epoch uint64
	if m := s.Map(); m != nil {
		mode = m.Mode.String()
		epoch = m.Epoch
	}
	snaps := []telemetry.NodeSnapshot{s.tele.Snapshot(now, telemetry.Info{
		Node: s.cfg.NodeID, Shard: s.cfg.ShardID, Role: "controlet",
		Mode: mode, Epoch: epoch,
	})}
	req := wire.GetRequest()
	req.Op = wire.OpTelemetry
	resp := wire.GetResponse()
	if err := s.local.Do(req, resp); err == nil && resp.Status == wire.StatusOK {
		var ds telemetry.NodeSnapshot
		if json.Unmarshal(resp.Value, &ds) == nil && ds.Node != "" {
			ds.Shard = s.cfg.ShardID
			ds.Mode = mode
			ds.Epoch = epoch
			snaps = append(snaps, ds)
		}
	}
	wire.PutRequest(req)
	wire.PutResponse(resp)
	return snaps
}

// --- control RPC handlers -------------------------------------------------

func (s *Server) handleUpdateMap(m *topology.Map) (struct{}, error) {
	if m == nil {
		return struct{}{}, errors.New("controlet: nil map")
	}
	s.SetMap(m)
	return struct{}{}, nil
}

// RecoverArgs names the surviving datalet to clone state from.
type RecoverArgs struct {
	// SourceDatalet is the data address of the surviving datalet.
	SourceDatalet string `json:"source"`
	// SourceControl is the control address of that datalet's controlet;
	// an AA+EC controlet takes its log cursor from there.
	SourceControl string `json:"source_ctl,omitempty"`
	// Codec optionally overrides the protocol spoken by the source
	// datalet (defaults to this controlet's datalet codec).
	Codec string `json:"codec,omitempty"`
}

func (s *Server) handleRecover(args RecoverArgs) (RecoverReply, error) {
	return s.recoverFrom(args)
}

// handleQuiesce returns once every write that was executing when the call
// arrived has completed. The coordinator pairs it with a synchronous
// UpdateMap: afterwards, every write this node acknowledges has traversed
// the new replica set, so a backfill snapshot taken next misses nothing.
func (s *Server) handleQuiesce(struct{}) (struct{}, error) {
	s.inflight.Lock()
	s.inflight.Unlock() //nolint:staticcheck // immediate handover is the point
	return struct{}{}, nil
}

// handleDrain flushes any asynchronous replication state so a transition
// can complete; it returns only when everything acked is fully propagated.
// Order matters: first install the transition map (it rides in the call —
// the broadcast push is asynchronous and may not have landed yet, and a
// draining controlet without the transition map could not know where to
// forward), then divert new writes (draining flag), then wait out writes
// already executing (they may still be about to enqueue propagation), and
// only then drain the propagation state — sampling the queues before the
// quiesce would miss an acked write racing its enqueue.
func (s *Server) handleDrain(m *topology.Map) (struct{}, error) {
	if m != nil {
		s.SetMap(m)
	}
	s.draining.Store(true)
	s.inflight.Lock()
	s.inflight.Unlock() //nolint:staticcheck // barrier handover
	if s.prop != nil {
		s.prop.drain()
	}
	if s.aaec != nil {
		s.aaec.drain()
	}
	return struct{}{}, nil
}

// StatsReply summarizes the controlet for tooling.
type StatsReply struct {
	NodeID  string `json:"node"`
	ShardID string `json:"shard"`
	Mode    string `json:"mode"`
	Epoch   uint64 `json:"epoch"`
	Role    string `json:"role"`
	Clock   uint64 `json:"clock"`
	// Migration is the active mover's progress, nil when idle.
	Migration *migrate.Status `json:"migration,omitempty"`
}

func (s *Server) handleStats(struct{}) (StatsReply, error) {
	m := s.Map()
	reply := StatsReply{
		NodeID:  s.cfg.NodeID,
		ShardID: s.cfg.ShardID,
		Mode:    s.cfg.Mode.String(),
		Clock:   s.clock.Load(),
	}
	if m != nil {
		reply.Epoch = m.Epoch
		_, pos := s.myShard(m)
		reply.Role = s.roleName(m, pos)
	}
	if ms := s.mig.Load(); ms != nil {
		st := ms.mover.Status()
		reply.Migration = &st
	}
	return reply, nil
}

func (s *Server) roleName(m *topology.Map, pos int) string {
	shard, _ := s.myShard(m)
	switch {
	case pos < 0:
		return "detached"
	case !s.pol.headOnly:
		return "active"
	case pos == 0:
		return "head"
	case pos == len(shard.Replicas)-1:
		return "tail"
	default:
		return "mid"
	}
}
