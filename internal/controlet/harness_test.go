package controlet

import (
	"fmt"
	"testing"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/sharedlog"
	"bespokv/internal/store"
	"bespokv/internal/store/ht"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

var fourModes = []topology.Mode{
	{Topology: topology.MS, Consistency: topology.Strong},
	{Topology: topology.MS, Consistency: topology.Eventual},
	{Topology: topology.AA, Consistency: topology.Strong},
	{Topology: topology.AA, Consistency: topology.Eventual},
}

// testShard is one coordinator-less shard of real controlet+datalet pairs
// over the in-process transport, with the shared log AA+EC needs.
type testShard struct {
	ctls     []*Server
	datalets []*datalet.Server
	m        *topology.Map
	logAddr  string // the AA+EC shared log
}

// shardOpts are the knobs a test turns on the harness (zero: none).
type shardOpts struct {
	// engine wraps replica i's table engines (fault injection).
	engine func(replica int, e store.Engine) store.Engine
	// logSegment is the shared log's SegmentEntries.
	logSegment int
	// fence is every controlet's FenceTimeout, against a coordinator
	// address nobody answers: the fence runs from boot.
	fence time.Duration
	// maxInflight is every controlet's MaxInflight (0: the default).
	maxInflight int
}

func startDatalet(tb testing.TB, name string, wrap func(store.Engine) store.Engine) *datalet.Server {
	tb.Helper()
	net, _ := transport.Lookup("inproc")
	d, err := datalet.Serve(datalet.Config{
		Name:    name,
		Network: net,
		Codec:   wire.BinaryCodec{},
		NewEngine: func(string) (store.Engine, error) {
			if wrap != nil {
				return wrap(ht.New()), nil
			}
			return ht.New(), nil
		},
		Logf: tb.Logf,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	return d
}

// startShard boots n replicas in mode and installs a static map (epoch 5)
// listing them, followed by any extra nodes — fake peers a test serves
// itself.
func startShard(tb testing.TB, mode topology.Mode, n int, extra ...topology.Node) *testShard {
	tb.Helper()
	return startShardOpts(tb, mode, n, shardOpts{}, extra...)
}

func startShardOpts(tb testing.TB, mode topology.Mode, n int, opts shardOpts, extra ...topology.Node) *testShard {
	tb.Helper()
	net, _ := transport.Lookup("inproc")
	cfg := Config{ShardID: "shard-0", Network: net, Codec: wire.BinaryCodec{}, Mode: mode, Logf: tb.Logf,
		MaxInflight: opts.maxInflight}
	if opts.fence > 0 {
		cfg.CoordinatorAddr, cfg.FenceTimeout = "nowhere", opts.fence
	}
	if mode.Topology == topology.AA && mode.Consistency == topology.Eventual {
		l, err := sharedlog.Serve(sharedlog.Config{Network: net, SegmentEntries: opts.logSegment})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { l.Close() })
		cfg.SharedLogAddr = l.Addr()
	}
	sh := &testShard{logAddr: cfg.SharedLogAddr, m: &topology.Map{
		Epoch:       5,
		Mode:        mode,
		Partitioner: topology.HashPartitioner,
		Shards:      []topology.Shard{{ID: cfg.ShardID}},
	}}
	for i := 0; i < n; i++ {
		var wrap func(store.Engine) store.Engine
		if opts.engine != nil {
			i := i
			wrap = func(e store.Engine) store.Engine { return opts.engine(i, e) }
		}
		d := startDatalet(tb, fmt.Sprintf("d%d", i), wrap)
		c := cfg
		c.NodeID = fmt.Sprintf("n%d", i)
		c.DataletAddr = d.Addr()
		s, err := Serve(c)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { s.Close() })
		sh.ctls = append(sh.ctls, s)
		sh.datalets = append(sh.datalets, d)
		sh.m.Shards[0].Replicas = append(sh.m.Shards[0].Replicas, s.Node())
	}
	sh.m.Shards[0].Replicas = append(sh.m.Shards[0].Replicas, extra...)
	for _, s := range sh.ctls {
		s.SetMap(sh.m)
	}
	return sh
}
