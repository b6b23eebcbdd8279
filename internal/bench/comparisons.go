package bench

import (
	"fmt"

	"bespokv/internal/baseline/dynamo"
	"bespokv/internal/baseline/dynomite"
	"bespokv/internal/baseline/twemproxy"
	"bespokv/internal/cluster"
	"bespokv/internal/datalet"
	"bespokv/internal/store"
	"bespokv/internal/store/ht"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
	"bespokv/internal/workload"
)

// Fig11ProxyComparison regenerates Fig. 11: bespokv fronting tRedis-style
// text-protocol datalets under MS+SC, MS+EC and AA+EC, against the
// twemproxy baseline (sharding only, the paper's Twem+Redis MS+EC column)
// and the dynomite baseline (AA+EC). Expected shape: twemproxy slightly
// above bespokv MS+EC (it does strictly less work), dynomite ≈ bespokv
// AA+EC, and MS+SC the most expensive bespokv column.
func Fig11ProxyComparison(p Params) error {
	p.defaults()
	shards := p.NodeCounts[len(p.NodeCounts)-1] / 3
	if shards < 1 {
		shards = 1
	}
	mixes := []mixCase{
		{"95get", workload.ReadMostly},
		{"50get", workload.UpdateIntensive},
	}
	dists := []distCase{
		{"unif", p.uniformDist()},
		{"zipf", p.zipfDist()},
	}

	// bespokv + tRedis (text protocol datalets).
	for _, mode := range []topology.Mode{msSC, msEC, aaEC} {
		c, err := cluster.Start(cluster.Options{
			NetworkName:      p.NetworkName,
			Shards:           shards,
			Replicas:         3,
			Mode:             mode,
			Engine:           "ht",
			DataletCodecName: "text",
			DisableFailover:  true,
		})
		if err != nil {
			return err
		}
		for _, mix := range mixes {
			for _, dist := range dists {
				res, err := p.measure(c, dist.dist, mix.mix)
				if err != nil {
					c.Close()
					return err
				}
				p.row("fig11", fmt.Sprintf("bespokv-tredis/%s/%s/%s", mode, mix.name, dist.name), shards*3, res.KQPS, "")
			}
		}
		c.Close()
	}

	// Twemproxy: sharding-only over one text datalet per shard.
	if err := p.fig11Twemproxy(shards, mixes, dists); err != nil {
		return err
	}
	// Dynomite: AA+EC over one text datalet per replica.
	return p.fig11Dynomite(mixes, dists)
}

type mixCase struct {
	name string
	mix  workload.Mix
}

type distCase struct {
	name string
	dist func() workload.KeyDist
}

func startTextDatalets(networkName string, n int) (transport.Network, wire.Codec, []*datalet.Server, []string, error) {
	net, err := transport.Lookup(networkName)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	codec, err := wire.LookupCodec("text")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var servers []*datalet.Server
	var addrs []string
	for i := 0; i < n; i++ {
		addr := ""
		if networkName == "tcp" {
			addr = "127.0.0.1:0"
		}
		s, err := datalet.Serve(datalet.Config{
			Name:      fmt.Sprintf("tredis-%d", i),
			Network:   net,
			Addr:      addr,
			Codec:     codec,
			NewEngine: func(string) (store.Engine, error) { return ht.New(), nil },
			Logf:      func(string, ...any) {},
		})
		if err != nil {
			for _, srv := range servers {
				srv.Close()
			}
			return nil, nil, nil, nil, err
		}
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	return net, codec, servers, addrs, nil
}

func (p *Params) fig11Twemproxy(shards int, mixes []mixCase, dists []distCase) error {
	net, codec, servers, addrs, err := startTextDatalets(p.NetworkName, shards)
	if err != nil {
		return err
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	listen := ""
	if p.NetworkName == "tcp" {
		listen = "127.0.0.1:0"
	}
	proxy, err := twemproxy.Serve(twemproxy.Config{Network: net, Addr: listen, Codec: codec, Backends: addrs})
	if err != nil {
		return err
	}
	defer proxy.Close()
	return p.runRawTargets("fig11", "twemproxy/ms+ec", net, codec, []string{proxy.Addr()}, shards, mixes, dists)
}

func (p *Params) fig11Dynomite(mixes []mixCase, dists []distCase) error {
	net, codec, servers, addrs, err := startTextDatalets(p.NetworkName, 3)
	if err != nil {
		return err
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	var proxies []*dynomite.Server
	defer func() {
		for _, pr := range proxies {
			pr.Close()
		}
	}()
	listen := ""
	if p.NetworkName == "tcp" {
		listen = "127.0.0.1:0"
	}
	for i := 0; i < 3; i++ {
		pr, err := dynomite.Serve(dynomite.Config{Network: net, Addr: listen, Codec: codec, BackendAddr: addrs[i]})
		if err != nil {
			return err
		}
		proxies = append(proxies, pr)
	}
	var proxyAddrs []string
	for _, pr := range proxies {
		proxyAddrs = append(proxyAddrs, pr.Addr())
	}
	for i, pr := range proxies {
		var peers []string
		for j, a := range proxyAddrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		pr.SetPeers(peers)
	}
	return p.runRawTargets("fig11", "dynomite/aa+ec", net, codec, proxyAddrs, 3, mixes, dists)
}

// runRawTargets measures raw wire endpoints (baselines) under the mix/dist
// grid, spreading clients across targets.
func (p *Params) runRawTargets(figure, series string, net transport.Network, codec wire.Codec, targets []string, x int, mixes []mixCase, dists []distCase) error {
	kvs := make([]KV, p.Clients)
	for i := range kvs {
		pool, err := datalet.DialPool(net, targets[i%len(targets)], codec, 2)
		if err != nil {
			return err
		}
		kvs[i] = rawKV{pool: pool}
	}
	defer func() {
		for _, kv := range kvs {
			kv.Close()
		}
	}()
	if err := Preload(kvs[0], p.Preload); err != nil {
		return err
	}
	for _, mix := range mixes {
		for _, dist := range dists {
			gens, err := makeGens(p.Clients, dist.dist, mix.mix, 42)
			if err != nil {
				return err
			}
			res := RunLoad(kvs, gens, p.MeasureFor)
			p.row(figure, fmt.Sprintf("%s/%s/%s", series, mix.name, dist.name), x, res.KQPS, "")
		}
	}
	return nil
}

// Fig12NativeComparison regenerates Fig. 12: latency-vs-throughput curves
// for bespokv's four modes against the dynamo-style natively-distributed
// baselines (cassandra and voldemort profiles), swept over client counts.
// Expected shape: bespokv AA+EC in front, voldemort next, cassandra last
// (compaction + the coordinator hop); AA+SC flattest (lock contention);
// MS+EC ≈ AA+EC at 95% GET but behind it at 50% GET.
//
// This experiment deploys over tcp, where the harness puts each
// controlet→datalet hop on a unix-domain socket — the paper's physical
// layout, where that hop stays on one machine and is cheap while every
// cross-node hop (including the baselines' server-side coordinator
// forwarding) pays the network. Running it purely in-process would price
// all hops equally and invert the comparison.
func Fig12NativeComparison(p Params) error {
	p.defaults()
	clientSweep := []int{1, 2, 4, 8}
	for _, mix := range []mixCase{
		{"95get", workload.ReadMostly},
		{"50get", workload.UpdateIntensive},
	} {
		// bespokv modes on 2 shards × 3 replicas = 6 nodes, like the
		// paper's six server machines.
		for _, mode := range []topology.Mode{msSC, msEC, aaSC, aaEC} {
			c, err := cluster.Start(cluster.Options{
				NetworkName:     "tcp",
				Shards:          2,
				Replicas:        3,
				Mode:            mode,
				Engine:          "ht",
				DisableFailover: true,
			})
			if err != nil {
				return err
			}
			for _, nc := range clientSweep {
				pp := p
				pp.Clients = nc
				res, err := pp.measure(c, pp.zipfDist(), mix.mix)
				if err != nil {
					c.Close()
					return err
				}
				p.row("fig12", fmt.Sprintf("bespokv-%s/%s", mode, mix.name), nc, res.KQPS,
					fmt.Sprintf("lat=%v", res.Latency.Mean().Round(1000)))
			}
			c.Close()
		}
		// Dynamo-style baselines on 6 nodes, RF=3, also over tcp (their
		// storage is in-process, the real systems' layout).
		for _, profile := range []dynamo.Profile{dynamo.CassandraProfile(), dynamo.VoldemortProfile()} {
			net, err := transport.Lookup("tcp")
			if err != nil {
				return err
			}
			codec, err := wire.LookupCodec("binary")
			if err != nil {
				return err
			}
			dc, err := dynamo.Start(dynamo.Options{
				Network: net, Codec: codec, Nodes: 6, ReplicationFactor: 3, Profile: profile,
			})
			if err != nil {
				return err
			}
			addrs := dc.Addrs()
			for _, nc := range clientSweep {
				kvs := make([]KV, nc)
				ok := true
				for i := range kvs {
					pool, err := datalet.DialPool(net, addrs[i%len(addrs)], codec, 2)
					if err != nil {
						ok = false
						break
					}
					kvs[i] = rawKV{pool: pool}
				}
				if !ok {
					dc.Close()
					return fmt.Errorf("fig12: dial %s baseline", profile.Name)
				}
				if err := Preload(kvs[0], p.Preload); err != nil {
					dc.Close()
					return err
				}
				gens, err := makeGens(nc, p.zipfDist(), mix.mix, 42)
				if err != nil {
					dc.Close()
					return err
				}
				res := RunLoad(kvs, gens, p.MeasureFor)
				p.row("fig12", fmt.Sprintf("%s/%s", profile.Name, mix.name), nc, res.KQPS,
					fmt.Sprintf("lat=%v", res.Latency.Mean().Round(1000)))
				for _, kv := range kvs {
					kv.Close()
				}
			}
			dc.Close()
		}
	}
	return nil
}
