// Package cluster is the in-process deployment harness: it assembles a
// complete bespokv cluster — coordinator, DLM, shared log, N shards × R
// replicas of controlet+datalet pairs, and optional standbys — inside one
// process, over the inproc or tcp transport. Tests, benchmarks and the
// examples all deploy through it; it is this reproduction's substitute for
// the paper's GCE/testbed provisioning scripts (slap.sh), with node kills
// and live transitions exposed as methods.
package cluster

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/client"
	"bespokv/internal/controlet"
	"bespokv/internal/coordinator"
	"bespokv/internal/datalet"
	"bespokv/internal/dlm"
	"bespokv/internal/faultnet"
	"bespokv/internal/rpc"
	"bespokv/internal/sharedlog"
	"bespokv/internal/store"
	"bespokv/internal/store/applog"
	"bespokv/internal/store/btree"
	"bespokv/internal/store/faultfs"
	"bespokv/internal/store/ht"
	"bespokv/internal/store/lsm"
	"bespokv/internal/store/wal"
	"bespokv/internal/telemetry"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// Options configure a cluster.
type Options struct {
	// NetworkName is "inproc" (default) or "tcp".
	NetworkName string
	// Shards and Replicas shape the data plane (defaults 1 and 3).
	Shards   int
	Replicas int
	// Mode is the topology+consistency pair (default MS+SC).
	Mode topology.Mode
	// Engine names the datalet engine for every replica: "ht" (default),
	// "btree", "applog", "lsm".
	Engine string
	// EnginesByReplica overrides Engine per replica index — the polyglot
	// persistence setup (§IV-D): e.g. {"lsm","btree","applog"}.
	EnginesByReplica []string
	// CodecName is the client↔controlet protocol (default "binary").
	CodecName string
	// DataletCodecName is the controlet↔datalet protocol (default
	// CodecName); "text" exercises the tRedis/tSSDB parser path.
	DataletCodecName string
	// Partitioner defaults to consistent hashing; range partitioning
	// enables cross-shard scans.
	Partitioner topology.Partitioner
	// Standbys pre-provisions spare pairs for failover (default 0).
	Standbys int
	// DataDir persists applog/lsm engines under per-node directories.
	DataDir string
	// Durable gives every node a private crash-faithful filesystem
	// (faultfs) and opens its engines in write-ahead-logged durable mode;
	// requires Engine "ht" or "lsm". Crash and Restart then emulate
	// kill -9 plus reboot: unsynced data is lost, fsynced data survives,
	// and a restarted node rejoins with an incremental delta.
	Durable bool
	// Seed derives each node's faultfs seed; same seed, same torn-write
	// behavior. Used with Durable.
	Seed int64
	// HeartbeatTimeout and HeartbeatInterval tune failure detection
	// (defaults 800ms / 100ms — scaled-down versions of the paper's 5s).
	HeartbeatTimeout  time.Duration
	HeartbeatInterval time.Duration
	// SLOs installs the telemetry aggregator's alerting policy (default
	// telemetry.DefaultObjectives()); tests shrink windows and thresholds
	// to drive pending→firing→resolved transitions quickly.
	SLOs []telemetry.Objective
	// TelemetryInterval is the node-side workload-stats window width
	// (default HeartbeatInterval, so every heartbeat ships fresh windows).
	TelemetryInterval time.Duration
	// DisableFailover turns the coordinator's failure detector off.
	DisableFailover bool
	// ReplicatedControl is the member count of each control-plane RSM
	// group — coordinator, DLM, and shared-log sequencer. 0 and 1 both run
	// a group of one, which is the single-process server; 3 is the useful
	// replicated value. Members of a larger group appear to the fault
	// fabric as hosts "coord-0".."coord-N-1", "dlm-0".. and "log-0".., so
	// nemesis schedules can kill or partition the current leader
	// specifically. Clients and controlets get the full member list and
	// rotate on NotLeader. Above 1, inproc transport only (RSM peers need
	// fixed addresses known before any member starts).
	ReplicatedControl int
	// ControlElectionTimeout tunes the control-plane RSM groups' election
	// timeout (default 150ms); re-election after a leader kill lands
	// within a few multiples of this.
	ControlElectionTimeout time.Duration
	// LogSegmentEntries is the shared log's segment size (0: its default,
	// 4096). A stream retains sharedlog.RetainSegments segments, so tests
	// shrink this to cross the retention window with a few hundred writes.
	LogSegmentEntries int
	// P2PRouting enables the §IV-E P2P-style topology: any controlet
	// accepts any key and routes it to the owning shard.
	P2PRouting bool
	// MaxInflight caps concurrently executing data ops at every controlet
	// and datalet listener (admission control; see internal/overload).
	// 0 keeps the servers' defaults; < 0 disables gating.
	MaxInflight int
	// ShedTarget is the admission gates' CoDel sojourn target (default
	// 5ms); overload tests shrink it so a surge engages shedding quickly.
	ShedTarget time.Duration
	// EngineLatency adds a fixed service delay to every engine Put, Get
	// and Delete on every datalet — the overload suite's way of giving
	// each op a real service time, so a surge builds genuine queues
	// instead of being absorbed by microsecond hash-table writes. 0
	// disables.
	EngineLatency time.Duration
	// Fabric, when set, interposes the faultnet fault plane on every
	// connection: components dial and listen through named host views of
	// the fabric (pair node IDs for the data plane; "coord", "dlm", "log"
	// for groups of one and ReplicatedControl's names otherwise for the
	// control services; "client" and "admin" for clients and the
	// harness itself) so nemesis schedules can drop, delay, reorder or
	// partition traffic between specific components. The fabric must wrap
	// the same transport NetworkName names. Under a fabric the hop between
	// a controlet and its own datalet stays on the fabric too (over tcp it
	// otherwise moves to a socket file, see Cluster.sockDir): after a live
	// transition that hop joins two fabric hosts, and schedules must still
	// be able to slow or cut it.
	Fabric *faultnet.Fabric
	// Logf receives diagnostics from every component; nil discards them
	// (the harness is used in benchmarks where log noise skews numbers).
	Logf func(format string, args ...any)
}

// Pair is one controlet–datalet unit.
type Pair struct {
	Node      topology.Node
	Datalet   *datalet.Server
	Controlet *controlet.Server
	killed    atomic.Bool

	// Restart metadata: the shard the pair belongs to, the engine it
	// runs, and (under Options.Durable) its private crash-faithful
	// filesystem, which survives the pair so a restarted instance
	// recovers from it.
	shardID string
	engine  string
	fs      *faultfs.FS
}

// Kill abruptly stops the pair (both processes), emulating a node crash.
func (p *Pair) Kill() {
	if p.killed.Swap(true) {
		return
	}
	_ = p.Controlet.Close()
	_ = p.Datalet.Close()
}

// Killed reports whether the pair was killed.
func (p *Pair) Killed() bool { return p.killed.Load() }

// Cluster is a running in-process deployment.
type Cluster struct {
	Opts  Options
	Net   transport.Network
	Codec wire.Codec
	// Coord, DLM and Log are member 0 of their groups: the server itself in
	// a group of one; with more members, prefer the leader helpers, since
	// member 0 may be killed or a follower.
	Coord *coordinator.Server
	DLM   *dlm.Server
	Log   *sharedlog.Server
	// Every member of each control group, aligned with its fabric host
	// name.
	Coords   []*coordinator.Server
	DLMs     []*dlm.Server
	Logs     []*sharedlog.Server
	coordIDs []string
	dlmIDs   []string
	logIDs   []string
	ctlAddrs map[string]string // fabric host -> listen address
	Shards   [][]*Pair         // [shard][replica]
	Standbys []*Pair
	oldPairs []*Pair // pre-transition controlets kept until Close
	nameSeq  atomic.Uint64

	// sockDir holds one unix-domain socket per pair, named by node ID, when
	// the cluster runs over tcp with no fault fabric: the paper's layout has
	// each controlet beside its datalet on one machine, so that hop is IPC
	// and only cross-node hops cross the TCP stack. Empty otherwise.
	sockDir string

	fsMu   sync.Mutex
	nodeFS map[string]*faultfs.FS // nodeID -> durable filesystem
}

func (o *Options) defaults() error {
	if o.NetworkName == "" {
		o.NetworkName = "inproc"
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	if o.Mode == (topology.Mode{}) {
		o.Mode = topology.Mode{Topology: topology.MS, Consistency: topology.Strong}
	}
	if !o.Mode.Valid() {
		return fmt.Errorf("cluster: invalid mode %s", o.Mode)
	}
	if o.Engine == "" {
		o.Engine = "ht"
	}
	if o.CodecName == "" {
		o.CodecName = "binary"
	}
	if o.DataletCodecName == "" {
		o.DataletCodecName = o.CodecName
	}
	if o.Partitioner == "" {
		o.Partitioner = topology.HashPartitioner
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 800 * time.Millisecond
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 100 * time.Millisecond
	}
	if o.TelemetryInterval <= 0 {
		o.TelemetryInterval = o.HeartbeatInterval
	}
	if o.ControlElectionTimeout <= 0 {
		o.ControlElectionTimeout = 150 * time.Millisecond
	}
	if o.ReplicatedControl > 1 && o.NetworkName != "inproc" {
		return fmt.Errorf("cluster: ReplicatedControl requires the inproc transport")
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if len(o.EnginesByReplica) != 0 && len(o.EnginesByReplica) != o.Replicas {
		return fmt.Errorf("cluster: EnginesByReplica has %d entries for %d replicas",
			len(o.EnginesByReplica), o.Replicas)
	}
	if o.Durable {
		engines := o.EnginesByReplica
		if len(engines) == 0 {
			engines = []string{o.Engine}
		}
		for _, e := range engines {
			if e != "ht" && e != "lsm" {
				return fmt.Errorf("cluster: engine %q does not support Durable (use ht or lsm)", e)
			}
		}
	}
	return nil
}

// fsFor returns (creating on first use) the durable filesystem for a node.
// The filesystem outlives any one pair: a restarted node opens the same
// one and recovers whatever its predecessor made durable.
func (c *Cluster) fsFor(nodeID string) *faultfs.FS {
	c.fsMu.Lock()
	defer c.fsMu.Unlock()
	if c.nodeFS == nil {
		c.nodeFS = map[string]*faultfs.FS{}
	}
	fs, ok := c.nodeFS[nodeID]
	if !ok {
		fs = faultfs.New(c.Opts.Seed ^ int64(crc32.ChecksumIEEE([]byte(nodeID))))
		c.nodeFS[nodeID] = fs
	}
	return fs
}

// durableEngineFactory builds the NewEngine function for one durable node:
// every table's engine write-ahead-logs over the node's faultfs.
func durableEngineFactory(name string, fs *faultfs.FS) (func(table string) (store.Engine, error), error) {
	switch name {
	case "ht":
		return func(table string) (store.Engine, error) {
			return ht.Open(ht.Options{Dir: wal.Join("data", "t_"+table), FS: fs})
		}, nil
	case "lsm":
		return func(table string) (store.Engine, error) {
			return lsm.New(lsm.Options{Dir: wal.Join("data", "t_"+table), FS: fs, Durable: true})
		}, nil
	default:
		return nil, fmt.Errorf("cluster: engine %q does not support durable mode", name)
	}
}

// slowEngine adds a fixed service delay to the point operations of an
// engine (Options.EngineLatency): a knob that turns an in-process hash
// table into something with a real service time, so overload tests can
// build genuine queues. It deliberately wraps only the store.Engine
// surface — optional interfaces (Versioned, Recovered) are hidden, which
// latency-injection deployments don't use.
type slowEngine struct {
	store.Engine
	delay time.Duration
}

func (s slowEngine) Put(key, value []byte, version uint64) (uint64, error) {
	time.Sleep(s.delay)
	return s.Engine.Put(key, value, version)
}

func (s slowEngine) AppendGet(dst, key []byte) ([]byte, uint64, bool, error) {
	time.Sleep(s.delay)
	return s.Engine.AppendGet(dst, key)
}

func (s slowEngine) Delete(key []byte, version uint64) (bool, uint64, error) {
	time.Sleep(s.delay)
	return s.Engine.Delete(key, version)
}

// engineFactory builds the NewEngine function for one node.
func engineFactory(name, dir string) (func(table string) (store.Engine, error), error) {
	switch name {
	case "ht":
		return func(string) (store.Engine, error) { return ht.New(), nil }, nil
	case "btree":
		return func(string) (store.Engine, error) { return btree.New(), nil }, nil
	case "applog":
		return func(table string) (store.Engine, error) {
			sub := ""
			if dir != "" {
				sub = filepath.Join(dir, "t_"+table)
			}
			return applog.New(applog.Options{Dir: sub})
		}, nil
	case "lsm":
		return func(table string) (store.Engine, error) {
			sub := ""
			if dir != "" {
				sub = filepath.Join(dir, "t_"+table)
			}
			return lsm.New(lsm.Options{Dir: sub})
		}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown engine %q", name)
	}
}

// Start deploys a cluster per opts and waits until it is serving.
func Start(opts Options) (*Cluster, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	net, err := transport.Lookup(opts.NetworkName)
	if err != nil {
		return nil, err
	}
	codec, err := wire.LookupCodec(opts.CodecName)
	if err != nil {
		return nil, err
	}
	dataletCodec, err := wire.LookupCodec(opts.DataletCodecName)
	if err != nil {
		return nil, err
	}

	c := &Cluster{Opts: opts, Net: net, Codec: codec}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}
	if opts.NetworkName == "tcp" && opts.Fabric == nil {
		// Short on purpose: a socket path has to fit sockaddr_un's 108 bytes.
		if c.sockDir, err = os.MkdirTemp("", "bkv"); err != nil {
			return fail(err)
		}
	}

	if err := c.startControl(net); err != nil {
		return fail(err)
	}

	// Data plane.
	m := &topology.Map{
		Mode:        opts.Mode,
		Partitioner: opts.Partitioner,
	}
	if opts.Partitioner == topology.RangePartitioner {
		m.RangeSplits = topology.UniformSplits(opts.Shards)
	}
	for si := 0; si < opts.Shards; si++ {
		shard := topology.Shard{ID: fmt.Sprintf("shard-%d", si)}
		var pairs []*Pair
		for ri := 0; ri < opts.Replicas; ri++ {
			engine := opts.Engine
			if len(opts.EnginesByReplica) > 0 {
				engine = opts.EnginesByReplica[ri]
			}
			nodeID := fmt.Sprintf("s%d-r%d", si, ri)
			pair, err := c.startPair(nodeID, shard.ID, engine, dataletCodec, opts.Mode)
			if err != nil {
				return fail(err)
			}
			pairs = append(pairs, pair)
			shard.Replicas = append(shard.Replicas, pair.Node)
		}
		c.Shards = append(c.Shards, pairs)
		m.Shards = append(m.Shards, shard)
	}

	// Install the map and give every controlet its first copy directly
	// (faster and more deterministic than waiting for the first push).
	admin, err := coordinator.DialCoordinator(c.hostNet(net, "admin"), c.controlAddr(c.coordIDs))
	if err != nil {
		return fail(err)
	}
	defer admin.Close()
	epoch, err := admin.SetMap(m)
	if err != nil {
		return fail(err)
	}
	m.Epoch = epoch
	for _, pairs := range c.Shards {
		for _, p := range pairs {
			p.Controlet.SetMap(m)
		}
	}

	// Standbys register last so they are never picked as initial members.
	for i := 0; i < opts.Standbys; i++ {
		engine := opts.Engine
		if len(opts.EnginesByReplica) > 0 {
			engine = opts.EnginesByReplica[opts.Replicas-1]
		}
		nodeID := fmt.Sprintf("standby-%d", i)
		pair, err := c.startPair(nodeID, "", engine, dataletCodec, opts.Mode)
		if err != nil {
			return fail(err)
		}
		pair.Controlet.SetMap(m)
		c.Standbys = append(c.Standbys, pair)
		if err := admin.RegisterStandby(pair.Node); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

// hostNet resolves the network a component should use: the fault fabric's
// view for the named host when one is installed (and wraps this transport),
// otherwise inner unchanged. Every connection made through the returned
// network is attributed to host, so nemesis rules can target it by name.
func (c *Cluster) hostNet(inner transport.Network, host string) transport.Network {
	if f := c.Opts.Fabric; f != nil && f.Inner() == inner {
		return f.Host(host)
	}
	return inner
}

// fenceTimeout is the self-fencing horizon handed to every controlet: the
// coordinator's failure-detection timeout, so a head that cannot reach the
// coordinator stops acking writes at the same moment its replacement can
// be promoted. Zero (fencing off) when failover is disabled — no one will
// be promoted, so serving through a coordinator outage is the better
// availability trade.
func (c *Cluster) fenceTimeout() time.Duration {
	if c.Opts.DisableFailover {
		return 0
	}
	return c.Opts.HeartbeatTimeout
}

// Hosts returns the fabric host names of the live data nodes (shard
// replicas, then standbys) for building nemesis schedules. The control
// services dial as "coord", "dlm" and "log"; clients as "client"; the
// harness's own control connections as "admin" (leave that one alone or
// Transition/KillNode repair paths stall on the harness side).
func (c *Cluster) Hosts() []string {
	var hs []string
	for _, pairs := range c.Shards {
		for _, p := range pairs {
			if !p.Killed() {
				hs = append(hs, p.Node.ID)
			}
		}
	}
	for _, p := range c.Standbys {
		if !p.Killed() {
			hs = append(hs, p.Node.ID)
		}
	}
	return hs
}

func listenAddr(networkName string) string {
	if networkName == "tcp" {
		return "127.0.0.1:0"
	}
	return ""
}

// localLink is the controlet-side name of a datalet's local listener.
func localLink(d *datalet.Server) string {
	if d == nil || d.LocalAddr() == "" {
		return ""
	}
	return transport.UnixAddr(d.LocalAddr())
}

// startPair boots one datalet and its controlet.
func (c *Cluster) startPair(nodeID, shardID, engine string, dataletCodec wire.Codec, mode topology.Mode) (*Pair, error) {
	var newEngine func(table string) (store.Engine, error)
	var nodeFS *faultfs.FS
	var err error
	if c.Opts.Durable {
		nodeFS = c.fsFor(nodeID)
		newEngine, err = durableEngineFactory(engine, nodeFS)
	} else {
		dir := ""
		if c.Opts.DataDir != "" {
			dir = filepath.Join(c.Opts.DataDir, nodeID+"-"+fmt.Sprint(c.nameSeq.Add(1)))
		}
		newEngine, err = engineFactory(engine, dir)
	}
	if err != nil {
		return nil, err
	}
	if c.Opts.EngineLatency > 0 {
		inner := newEngine
		lat := c.Opts.EngineLatency
		newEngine = func(table string) (store.Engine, error) {
			e, err := inner(table)
			if err != nil {
				return nil, err
			}
			return slowEngine{Engine: e, delay: lat}, nil
		}
	}
	var sock string
	if c.sockDir != "" {
		sock = filepath.Join(c.sockDir, nodeID)
	}
	d, err := datalet.Serve(datalet.Config{
		Name:              nodeID + "-datalet",
		Network:           c.hostNet(c.Net, nodeID),
		Addr:              listenAddr(c.Opts.NetworkName),
		LocalAddr:         sock,
		Codec:             dataletCodec,
		NewEngine:         newEngine,
		TelemetryInterval: c.Opts.TelemetryInterval,
		MaxInflight:       c.Opts.MaxInflight,
		ShedTarget:        c.Opts.ShedTarget,
		Logf:              c.Opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	ctl, err := c.serveControlet(nodeID, shardID, d.Addr(), d, dataletCodec, mode)
	if err != nil {
		d.Close()
		return nil, err
	}
	node := ctl.Node()
	node.DataletCodec = c.Opts.DataletCodecName
	return &Pair{Node: node, Datalet: d, Controlet: ctl, shardID: shardID, engine: engine, fs: nodeFS}, nil
}

// serveControlet boots a controlet in mode over the datalet at dataletAddr;
// d is that datalet's server when this cluster runs it (nil otherwise), so
// the controlet can take its local listener.
func (c *Cluster) serveControlet(nodeID, shardID, dataletAddr string, d *datalet.Server, dataletCodec wire.Codec, mode topology.Mode) (*controlet.Server, error) {
	return controlet.Serve(controlet.Config{
		NodeID:            nodeID,
		ShardID:           shardID,
		Network:           c.hostNet(c.Net, nodeID),
		DataAddr:          listenAddr(c.Opts.NetworkName),
		CtlAddr:           listenAddr(c.Opts.NetworkName),
		Codec:             c.Codec,
		DataletAddr:       dataletAddr,
		LocalDatalet:      localLink(d),
		DataletCodec:      dataletCodec,
		Mode:              mode,
		CoordinatorAddr:   c.controlAddr(c.coordIDs),
		SharedLogAddr:     c.controlAddr(c.logIDs),
		HeartbeatInterval: c.Opts.HeartbeatInterval,
		TelemetryInterval: c.Opts.TelemetryInterval,
		FenceTimeout:      c.fenceTimeout(),
		P2PRouting:        c.Opts.P2PRouting,
		MaxInflight:       c.Opts.MaxInflight,
		ShedTarget:        c.Opts.ShedTarget,
		Logf:              c.Opts.Logf,
	})
}

// Client opens a coordinator-backed client for this cluster.
func (c *Cluster) Client() (*client.Client, error) {
	return c.ClientConfig(client.Config{})
}

// ClientConfig opens a client with caller-supplied tuning (op timeouts,
// retry budgets); the cluster fills in the transport, codec and
// coordinator address. Under a fault fabric the client dials as host
// "client", so schedules can partition it from specific nodes.
func (c *Cluster) ClientConfig(cfg client.Config) (*client.Client, error) {
	cfg.Network = c.hostNet(c.Net, "client")
	cfg.Codec = c.Codec
	cfg.CoordinatorAddr = c.controlAddr(c.coordIDs)
	if cfg.Logf == nil {
		cfg.Logf = c.Opts.Logf
	}
	return client.New(cfg)
}

// Admin opens a coordinator client for map inspection and transitions.
func (c *Cluster) Admin() (*coordinator.Client, error) {
	return coordinator.DialCoordinator(c.hostNet(c.Net, "admin"), c.controlAddr(c.coordIDs))
}

// Pair returns the pair at (shard, replica) as originally deployed.
func (c *Cluster) Pair(shard, replica int) *Pair {
	return c.Shards[shard][replica]
}

// KillNode crashes the pair at (shard, replica); the coordinator's failure
// detector will repair the shard.
func (c *Cluster) KillNode(shard, replica int) {
	c.Shards[shard][replica].Kill()
}

// Crash kill-9s the pair at (shard, replica) with storage semantics: the
// node's filesystem freezes first (so the in-process graceful Close that
// Kill triggers cannot flush anything — exactly what a real SIGKILL
// denies), the processes stop, and the disk image reverts to its durable
// prefix. Requires Options.Durable.
func (c *Cluster) Crash(shard, replica int) error {
	return c.crash(shard, replica, false)
}

// CrashTorn is Crash with a torn final write: a seeded-random prefix of
// each file's unsynced tail survives, as when power fails mid-sector.
func (c *Cluster) CrashTorn(shard, replica int) error {
	return c.crash(shard, replica, true)
}

func (c *Cluster) crash(shard, replica int, torn bool) error {
	p := c.Shards[shard][replica]
	if p.fs == nil {
		return errors.New("cluster: Crash requires Options.Durable")
	}
	p.fs.Freeze()
	p.Kill()
	if torn {
		p.fs.CrashTorn()
	} else {
		p.fs.Crash()
	}
	return nil
}

// Restart boots a fresh pair over the crashed node's durable filesystem
// and rejoins it to its shard. The engine recovers its WAL/checkpoint
// state first; the coordinator then runs the two-phase join, during which
// the node's controlet backfills what it missed — incrementally from its
// recovered watermark when the source can serve a delta, otherwise by a
// full export. The reply reports which happened and how much moved.
func (c *Cluster) Restart(shard, replica int) (coordinator.RejoinReply, error) {
	var reply coordinator.RejoinReply
	old := c.Shards[shard][replica]
	if !old.Killed() {
		return reply, fmt.Errorf("cluster: node %s is still running; Crash it first", old.Node.ID)
	}
	if old.fs == nil {
		return reply, errors.New("cluster: Restart requires Options.Durable")
	}
	dataletCodec, err := wire.LookupCodec(codecNameOf(old.Node, c.Opts))
	if err != nil {
		return reply, err
	}
	pair, err := c.startPair(old.Node.ID, old.shardID, old.engine, dataletCodec, c.Opts.Mode)
	if err != nil {
		return reply, err
	}
	admin, err := c.Admin()
	if err != nil {
		pair.Kill()
		return reply, err
	}
	defer admin.Close()
	cur, err := admin.GetMap()
	if err != nil {
		pair.Kill()
		return reply, err
	}
	pair.Controlet.SetMap(cur)
	reply, err = admin.Rejoin(old.shardID, pair.Node)
	if err != nil {
		pair.Kill()
		return reply, err
	}
	c.oldPairs = append(c.oldPairs, old)
	c.Shards[shard][replica] = pair
	return reply, nil
}

// Transition performs a live topology/consistency switch (§V): it boots a
// full set of new-mode controlets against the same datalets, asks the
// coordinator to run the drain protocol, waits for completion, then
// retires the old controlets. Data never moves.
func (c *Cluster) Transition(to topology.Mode) error {
	if !to.Valid() {
		return fmt.Errorf("cluster: invalid target mode %s", to)
	}
	admin, err := c.Admin()
	if err != nil {
		return err
	}
	defer admin.Close()
	cur, err := admin.GetMap()
	if err != nil {
		return err
	}

	// Boot new-mode controlets bound to the existing datalets.
	newShards := make([]topology.Shard, len(cur.Shards))
	var newPairs [][]*Pair
	gen := c.nameSeq.Add(1)
	for si, shard := range cur.Shards {
		newShards[si] = topology.Shard{ID: shard.ID}
		var pairs []*Pair
		for ri, old := range shard.Replicas {
			nodeID := fmt.Sprintf("%s-g%d-r%d", shard.ID, gen, ri)
			dataletCodec, err := wire.LookupCodec(codecNameOf(old, c.Opts))
			if err != nil {
				return err
			}
			d := c.dataletOf(old.DataletAddr)
			ctl, err := c.serveControlet(nodeID, shard.ID, old.DataletAddr, d, dataletCodec, to)
			if err != nil {
				return err
			}
			node := ctl.Node()
			node.DataletCodec = old.DataletCodec
			newShards[si].Replicas = append(newShards[si].Replicas, node)
			pairs = append(pairs, &Pair{Node: node, Controlet: ctl, Datalet: d})
		}
		newPairs = append(newPairs, pairs)
	}

	if _, err := admin.BeginTransition(to, newShards); err != nil {
		return err
	}
	// Wait for the coordinator's drain protocol to complete the switch.
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := admin.GetMap()
		if err != nil {
			return err
		}
		if m.Transition == nil && m.Mode == to {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("cluster: transition did not complete")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Retire the old controlets; datalets stay.
	for _, pairs := range c.Shards {
		for _, p := range pairs {
			c.oldPairs = append(c.oldPairs, p)
			if !p.Killed() {
				_ = p.Controlet.Close()
			}
		}
	}
	c.Shards = newPairs
	c.Opts.Mode = to
	return nil
}

// JoinNode boots a fresh shard (replicas controlet–datalet pairs) and asks
// the coordinator to migrate its ring share in online. It blocks until the
// migration completes and the expanded map is installed.
func (c *Cluster) JoinNode(replicas int) error {
	if replicas <= 0 {
		replicas = c.Opts.Replicas
	}
	admin, err := c.Admin()
	if err != nil {
		return err
	}
	defer admin.Close()
	cur, err := admin.GetMap()
	if err != nil {
		return err
	}
	dataletCodec, err := wire.LookupCodec(c.Opts.DataletCodecName)
	if err != nil {
		return err
	}
	gen := c.nameSeq.Add(1)
	shard := topology.Shard{ID: fmt.Sprintf("shard-j%d", gen)}
	var pairs []*Pair
	for ri := 0; ri < replicas; ri++ {
		nodeID := fmt.Sprintf("%s-r%d", shard.ID, ri)
		pair, err := c.startPair(nodeID, shard.ID, c.Opts.Engine, dataletCodec, c.Opts.Mode)
		if err != nil {
			return err
		}
		// The joining controlets need the current map before any migrated
		// traffic arrives; the expanded map reaches them via push later.
		pair.Controlet.SetMap(cur)
		pairs = append(pairs, pair)
		shard.Replicas = append(shard.Replicas, pair.Node)
	}
	start, err := admin.JoinNode(shard)
	if err != nil {
		for _, p := range pairs {
			p.Kill()
		}
		return err
	}
	if err := c.awaitMigration(admin, start.ID, cur.Epoch); err != nil {
		return err
	}
	c.Shards = append(c.Shards, pairs)
	return nil
}

// DrainNode migrates the keyspace of the shard at index si onto the other
// shards and removes it from the map, then retires its pairs. Blocks until
// the migration completes.
func (c *Cluster) DrainNode(si int) error {
	admin, err := c.Admin()
	if err != nil {
		return err
	}
	defer admin.Close()
	cur, err := admin.GetMap()
	if err != nil {
		return err
	}
	if si < 0 || si >= len(cur.Shards) || si >= len(c.Shards) {
		return fmt.Errorf("cluster: no shard at index %d", si)
	}
	start, err := admin.DrainNode(cur.Shards[si].ID)
	if err != nil {
		return err
	}
	if err := c.awaitMigration(admin, start.ID, cur.Epoch); err != nil {
		return err
	}
	for _, p := range c.Shards[si] {
		c.oldPairs = append(c.oldPairs, p)
		if !p.Killed() {
			_ = p.Controlet.Close()
			_ = p.Datalet.Close()
		}
	}
	c.Shards = append(c.Shards[:si:si], c.Shards[si+1:]...)
	return nil
}

// awaitMigration polls the coordinator until run id finishes and the
// post-migration map (epoch > baseEpoch) is installed.
func (c *Cluster) awaitMigration(admin *coordinator.Client, id string, baseEpoch uint64) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := admin.MigrationStatus()
		if err != nil {
			return err
		}
		if st.Run != nil && st.Run.ID == id && !st.Active {
			if st.Run.Err != "" {
				return fmt.Errorf("cluster: migration %s failed: %s", id, st.Run.Err)
			}
			break
		}
		if time.Now().After(deadline) {
			return errors.New("cluster: migration did not complete")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m, err := admin.GetMap()
	if err != nil {
		return err
	}
	if m.Epoch <= baseEpoch {
		return fmt.Errorf("cluster: migration %s finished without an epoch bump", id)
	}
	return nil
}

// codecNameOf returns the datalet codec name for a node.
func codecNameOf(n topology.Node, opts Options) string {
	if n.DataletCodec != "" {
		return n.DataletCodec
	}
	return opts.DataletCodecName
}

// dataletOf finds the datalet server behind an address (nil for killed or
// unknown addresses).
func (c *Cluster) dataletOf(addr string) *datalet.Server {
	for _, pairs := range c.Shards {
		for _, p := range pairs {
			if p.Datalet != nil && p.Datalet.Addr() == addr {
				return p.Datalet
			}
		}
	}
	return nil
}

// Reconcile runs the anti-entropy push from the pair at (shard, replica):
// its datalet's state is pushed (LWW-versioned) to every peer replica.
// Returns (pairs pushed, pairs accepted by all peers).
func (c *Cluster) Reconcile(shard, replica int) (int, int, error) {
	p := c.Shards[shard][replica]
	ctl, err := rpc.DialClient(c.hostNet(c.Net, "admin"), p.Controlet.CtlAddr())
	if err != nil {
		return 0, 0, err
	}
	defer ctl.Close()
	var reply controlet.ReconcileReply
	if err := ctl.Call("Reconcile", struct{}{}, &reply); err != nil {
		return 0, 0, err
	}
	return reply.Pairs, reply.Accepted, nil
}

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	for _, pairs := range c.Shards {
		for _, p := range pairs {
			if p != nil && !p.Killed() {
				if p.Controlet != nil {
					_ = p.Controlet.Close()
				}
				if p.Datalet != nil {
					_ = p.Datalet.Close()
				}
			}
		}
	}
	for _, p := range c.Standbys {
		if !p.Killed() {
			_ = p.Controlet.Close()
			_ = p.Datalet.Close()
		}
	}
	for _, s := range c.Logs {
		_ = s.Close()
	}
	for _, s := range c.DLMs {
		_ = s.Close()
	}
	for _, s := range c.Coords {
		_ = s.Close()
	}
	if c.sockDir != "" {
		_ = os.RemoveAll(c.sockDir)
	}
}
