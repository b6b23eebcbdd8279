// Package dynamo reimplements the natively-distributed baseline of
// Fig. 12: a Dynamo-descendant quorum store in the style of Cassandra and
// LinkedIn Voldemort. Unlike bespokv — where the client library routes
// straight to the owning controlet — every request lands on an arbitrary
// node that acts as coordinator and forwards to the key's replica set
// (Voldemort's "all-routing" server-side routing, consistency level ONE),
// paying an extra network hop per operation. Two profiles mirror the
// paper's comparison targets:
//
//   - "cassandra": LSM-backed with a small memtable, so flushes and
//     compaction charge the write path — the paper blames exactly this
//     for Cassandra's numbers;
//   - "voldemort": in-memory hash-table backed (the paper configured
//     Voldemort's storage to memory).
package dynamo

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/metrics"
	"bespokv/internal/store"
	"bespokv/internal/store/ht"
	"bespokv/internal/store/lsm"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// Profile selects the engine/behaviour of every node.
type Profile struct {
	// Name labels the profile ("cassandra", "voldemort").
	Name string
	// NewEngine builds one node's storage.
	NewEngine func() (store.Engine, error)
}

// CassandraProfile is the LSM-with-compaction configuration. Tables are
// disk-backed (Cassandra persists everything), so flushes and compactions
// pay real I/O, and the small memtable keeps that churn on the hot path —
// the cost the paper blames for Cassandra's numbers.
func CassandraProfile() Profile {
	return Profile{
		Name: "cassandra",
		NewEngine: func() (store.Engine, error) {
			dir, err := os.MkdirTemp("", "dynamo-cassandra-*")
			if err != nil {
				return nil, err
			}
			s, err := lsm.New(lsm.Options{Dir: dir, MemtableBytes: 256 << 10, FanoutLimit: 3})
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			return diskEngine{Store: s, dir: dir}, nil
		},
	}
}

// diskEngine removes its scratch directory when closed.
type diskEngine struct {
	*lsm.Store
	dir string
}

func (d diskEngine) Close() error {
	err := d.Store.Close()
	_ = os.RemoveAll(d.dir)
	return err
}

// VoldemortProfile is the in-memory configuration.
func VoldemortProfile() Profile {
	return Profile{
		Name:      "voldemort",
		NewEngine: func() (store.Engine, error) { return ht.New(), nil },
	}
}

// Options configure a cluster.
type Options struct {
	Network transport.Network
	Codec   wire.Codec
	// Nodes and ReplicationFactor shape the ring (defaults 6 and 3).
	Nodes             int
	ReplicationFactor int
	Profile           Profile
	PoolSize          int
}

// Cluster is a running dynamo-style store.
type Cluster struct {
	opts  Options
	nodes []*node
}

// Accept errors other than the listener closing; the loop retries them.
var acceptErrs = metrics.Default.Counter("bespokv_baseline_accept_errors_total", "system", "dynamo")

// node is one storage server: engine + wire listener + ring routing.
type node struct {
	idx      int
	cluster  *Cluster
	engine   store.Engine
	listener transport.Listener // srv's, once the ring is built
	srv      *transport.Server
	conn     wire.ConnHandler

	clock atomic.Uint64

	peers *datalet.Links // the other nodes

	stop  sync.Once
	pumps sync.WaitGroup // the replication pumps

	ring  *topology.Ring
	addrs []string

	// replQ decouples replication from the request handler: with CL=ONE
	// the coordinator acks after the primary applies, and the remaining
	// copies happen asynchronously. (It also keeps nested synchronous
	// RPCs out of the FIFO connection handlers, which would otherwise
	// deadlock head-of-line around the ring under load.)
	replQ  chan replRecord
	stopCh chan struct{}
}

type replRecord struct {
	owner   int
	op      wire.Op
	table   string
	key     []byte
	value   []byte
	version uint64
}

// Start boots the cluster.
func Start(opts Options) (*Cluster, error) {
	if opts.Network == nil || opts.Codec == nil || opts.Profile.NewEngine == nil {
		return nil, errors.New("dynamo: Network, Codec and Profile are required")
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 6
	}
	if opts.ReplicationFactor <= 0 {
		opts.ReplicationFactor = 3
	}
	if opts.ReplicationFactor > opts.Nodes {
		opts.ReplicationFactor = opts.Nodes
	}
	if opts.PoolSize <= 0 {
		opts.PoolSize = 2
	}
	c := &Cluster{opts: opts}
	// No node serves until the ring is built; until then what the nodes hold
	// is Start's to release.
	abort := func(err error) (*Cluster, error) {
		for _, n := range c.nodes {
			_ = n.listener.Close()
			_ = n.engine.Close()
		}
		return nil, err
	}
	for i := 0; i < opts.Nodes; i++ {
		engine, err := opts.Profile.NewEngine()
		if err != nil {
			return abort(err)
		}
		addr := ""
		if _, ok := opts.Network.(transport.TCP); ok {
			addr = "127.0.0.1:0"
		}
		l, err := opts.Network.Listen(addr)
		if err != nil {
			engine.Close()
			return abort(err)
		}
		n := &node{
			idx:      i,
			cluster:  c,
			engine:   engine,
			listener: l,
			srv:      transport.NewServer(),
			peers:    datalet.NewLinks(opts.Network, opts.PoolSize, 0),
			replQ:    make(chan replRecord, 4096),
			stopCh:   make(chan struct{}),
		}
		n.conn = wire.ConnHandler{Codec: opts.Codec, Node: fmt.Sprintf("dynamo-%d", i), Layer: "dynamo", Handle: n.handle}
		n.clock.Store(uint64(time.Now().Unix()) << 32)
		c.nodes = append(c.nodes, n)
	}
	ids := make([]string, opts.Nodes)
	addrs := make([]string, opts.Nodes)
	for i, n := range c.nodes {
		ids[i] = fmt.Sprintf("dynamo-%d", i)
		addrs[i] = n.listener.Addr()
	}
	ring := topology.BuildRingFromIDs(ids, 160)
	for _, n := range c.nodes {
		n.ring = ring
		n.addrs = addrs
		// Several pumps so replication keeps up with the write rate: a
		// baseline that silently drops its RF-1 copies under load would
		// be paying less than the real system does.
		const pumps = 4
		n.srv.Serve(n.listener, func(err error) {
			acceptErrs.Inc()
			log.Printf("dynamo: accept on %s: %v", n.listener.Addr(), err)
		}, func(conn transport.Conn) { _ = wire.ServeConn(conn, &n.conn) })
		n.pumps.Add(pumps)
		for i := 0; i < pumps; i++ {
			go n.replicationPump()
		}
	}
	return c, nil
}

// Addrs returns every node's address; clients may target any of them.
func (c *Cluster) Addrs() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.listener.Addr()
	}
	return out
}

// Engine exposes node i's storage for white-box assertions.
func (c *Cluster) Engine(i int) store.Engine { return c.nodes[i].engine }

// Close stops every node.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		if n != nil {
			n.close()
		}
	}
}

func (n *node) close() {
	n.stop.Do(func() {
		close(n.stopCh)
		_ = n.srv.Close()
		n.pumps.Wait()
		_ = n.peers.Close()
		_ = n.engine.Close()
	})
}

// owners returns the RF ring successors for a key.
func (n *node) owners(key []byte) []int {
	rf := n.cluster.opts.ReplicationFactor
	first := n.ring.Lookup(key)
	out := make([]int, 0, rf)
	for i := 0; i < rf; i++ {
		out = append(out, (first+i)%len(n.addrs))
	}
	return out
}

func (n *node) handle(req *wire.Request, resp *wire.Response, _ *bufio.Writer) (streamed bool, err error) {
	n.route(req, resp)
	return false, nil
}

func (n *node) route(req *wire.Request, resp *wire.Response) {
	switch req.Op {
	case wire.OpNop:
		resp.Status = wire.StatusOK
	case wire.OpPut, wire.OpDel:
		owners := n.owners(req.Key)
		if owners[0] != n.idx {
			// Coordinator hop: forward to the primary owner and relay —
			// the server-side routing cost bespokv's client-side
			// routing avoids.
			n.forward(owners[0], req, resp)
			return
		}
		version := n.clock.Add(1)
		n.applyLocal(req, resp, version)
		if resp.Status == wire.StatusOK || resp.Status == wire.StatusNotFound {
			// CL=ONE: the primary ack suffices; the other copies are
			// made asynchronously by the replication pump.
			rec := replRecord{
				op:      req.Op,
				table:   req.Table,
				key:     append([]byte(nil), req.Key...),
				value:   append([]byte(nil), req.Value...),
				version: version,
			}
			for _, o := range owners[1:] {
				rec.owner = o
				select {
				case n.replQ <- rec:
				default: // overflow drops the copy; anti-entropy territory
				}
			}
		}
	case wire.OpGet, wire.OpScan:
		owners := n.owners(req.Key)
		mine := false
		for _, o := range owners {
			if o == n.idx {
				mine = true
				break
			}
		}
		if !mine {
			n.forward(owners[0], req, resp)
			return
		}
		n.applyLocal(req, resp, 0)
	case wire.OpReplPut, wire.OpReplDel:
		inner := *req
		if inner.Op == wire.OpReplPut {
			inner.Op = wire.OpPut
		} else {
			inner.Op = wire.OpDel
		}
		n.observe(req.Version)
		n.applyLocal(&inner, resp, req.Version)
	default:
		resp.Status = wire.StatusErr
		resp.Err = "dynamo: unsupported op " + req.Op.String()
	}
}

func (n *node) observe(v uint64) {
	for {
		cur := n.clock.Load()
		if v <= cur || n.clock.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (n *node) applyLocal(req *wire.Request, resp *wire.Response, version uint64) {
	switch req.Op {
	case wire.OpPut:
		ver, err := n.engine.Put(req.Key, req.Value, version)
		if err != nil {
			resp.Status = wire.StatusErr
			resp.Err = err.Error()
			return
		}
		resp.Status = wire.StatusOK
		resp.Version = ver
	case wire.OpDel:
		existed, winner, err := n.engine.Delete(req.Key, version)
		if err != nil {
			resp.Status = wire.StatusErr
			resp.Err = err.Error()
			return
		}
		resp.Version = winner
		if existed {
			resp.Status = wire.StatusOK
		} else {
			resp.Status = wire.StatusNotFound
		}
	case wire.OpGet:
		v, ver, ok, err := n.engine.AppendGet(resp.Value[:0], req.Key)
		if err != nil {
			resp.Status = wire.StatusErr
			resp.Err = err.Error()
			return
		}
		if !ok {
			resp.Status = wire.StatusNotFound
			return
		}
		resp.Status = wire.StatusOK
		resp.Value = v
		resp.Version = ver
	case wire.OpScan:
		kvs, err := n.engine.Scan(req.Key, req.EndKey, int(req.Limit))
		if err != nil {
			resp.Status = wire.StatusErr
			resp.Err = err.Error()
			return
		}
		resp.Status = wire.StatusOK
		for _, kv := range kvs {
			resp.Pairs = append(resp.Pairs, wire.KV{Key: kv.Key, Value: kv.Value, Version: kv.Version})
		}
	}
}

func (n *node) forward(owner int, req *wire.Request, resp *wire.Response) {
	fwd := *req
	if err := n.peer(owner).Do(&fwd, resp); err != nil {
		resp.Reset()
		resp.Status = wire.StatusUnavailable
		resp.Err = err.Error()
	}
}

// replPipelineDepth caps how many replica copies one pump round keeps in
// flight on its peer connections.
const replPipelineDepth = 32

// replicationPump drains the node's replication queue, gathering backlog
// into windows and keeping every copy in the window in flight at once on
// the pipelined peer connections.
func (n *node) replicationPump() {
	defer n.pumps.Done()
	batch := make([]replRecord, 0, replPipelineDepth)
	for {
		select {
		case <-n.stopCh:
			return
		case rec := <-n.replQ:
			batch = append(batch[:0], rec)
			for len(batch) < replPipelineDepth {
				select {
				case more := <-n.replQ:
					batch = append(batch, more)
				default:
					goto full
				}
			}
		full:
			n.replicateBatch(batch)
		}
	}
}

// replicateBatch starts every copy of the window, then waits for them all.
func (n *node) replicateBatch(batch []replRecord) {
	type flight struct {
		req  *wire.Request
		resp *wire.Response
		p    datalet.Pending
	}
	flights := make([]flight, 0, len(batch))
	for _, rec := range batch {
		req := wire.GetRequest()
		req.Op = wire.OpReplPut
		if rec.op == wire.OpDel {
			req.Op = wire.OpReplDel
		}
		req.Table = rec.table
		req.Key = rec.key
		req.Value = rec.value
		req.Version = rec.version
		resp := wire.GetResponse()
		flights = append(flights, flight{req, resp, n.peer(rec.owner).Start(req, resp)})
	}
	for _, f := range flights {
		_ = f.p.Wait() // a copy that failed is dropped; anti-entropy territory
		wire.PutRequest(f.req)
		wire.PutResponse(f.resp)
	}
}

func (n *node) peer(owner int) *datalet.Link {
	return n.peers.To(n.addrs[owner], n.cluster.opts.Codec)
}
