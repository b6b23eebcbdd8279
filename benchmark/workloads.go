package main

import (
	"fmt"
	"strings"

	"bespokv/internal/cluster"
	"bespokv/internal/topology"
	"bespokv/internal/workload"
)

// spec is one benchmark workload: a cluster shape plus a traffic mix. Every
// workload is closed-loop, on the ht engine and the binary codec, with no
// injected message delay.
type spec struct {
	name    string
	network string
	// callers is the number of closed-loop callers, one client.Client each:
	// 2, one per processor, except over tcp. There callers block in the
	// kernel, two of them leave a processor idle half the time, and a GET
	// either finds the next goroutine running (~14 us) or has to wake it
	// (~25 us). The two cases are about equally common, so the median sits
	// on the edge between them and moved by 13 % between identical runs.
	// Four callers keep both processors busy.
	callers int
	shards  int
	mode    topology.Mode
	mix     workload.Mix
	zipf    bool
	// direct turns DirectReads on and issues reads as mgetKeys-key MultiGets.
	direct bool
	// offPath names per-layer metrics whose layer this workload's requests
	// never enter; they are still measured (in this workload's mode and on
	// its transport) and are marked in the printed ladder.
	offPath []string
}

const (
	procs         = 2  // GOMAXPROCS of every run
	mgetKeys      = 16 // keys per MultiGet on the direct workload
	sentinelKeys  = 64 // read-back keys each caller owns
	sentinelEvery = 64 // one sentinel PUT per this many calls
	keySize       = 16
	valueSize     = 32
)

var (
	mssc = topology.Mode{Topology: topology.MS, Consistency: topology.Strong}
	msec = topology.Mode{Topology: topology.MS, Consistency: topology.Eventual}
	aasc = topology.Mode{Topology: topology.AA, Consistency: topology.Strong}
	aaec = topology.Mode{Topology: topology.AA, Consistency: topology.Eventual}
)

// workloads must stay in step with BENCHMARK.json (the smoke test checks),
// which also records why each one exists.
var workloads = []spec{
	{
		name: "mssc-read95", network: "inproc", callers: 2, shards: 1, mode: mssc, mix: workload.ReadMostly,
		offPath: []string{"dlm.lock_rtt_ns", "sharedlog.append_rtt_ns"},
	},
	{
		name: "mssc-write50", network: "inproc", callers: 2, shards: 1, mode: mssc, mix: workload.UpdateIntensive, zipf: true,
		offPath: []string{"dlm.lock_rtt_ns", "sharedlog.append_rtt_ns"},
	},
	{
		name: "msec-mget-direct", network: "inproc", callers: 2, shards: 2, mode: msec, mix: workload.ReadMostly, direct: true,
		offPath: []string{"controlet.dispatch_self_ns", "dlm.lock_rtt_ns", "sharedlog.append_rtt_ns"},
	},
	{
		name: "aasc-write50", network: "inproc", callers: 2, shards: 1, mode: aasc, mix: workload.UpdateIntensive,
		offPath: []string{"sharedlog.append_rtt_ns"},
	},
	{
		name: "aaec-write50", network: "inproc", callers: 2, shards: 1, mode: aaec, mix: workload.UpdateIntensive,
		offPath: []string{"dlm.lock_rtt_ns"},
	},
	{
		name: "tcp-read95", network: "tcp", callers: 4, shards: 1, mode: mssc, mix: workload.ReadMostly,
		offPath: []string{"dlm.lock_rtt_ns", "sharedlog.append_rtt_ns"},
	},
}

// sizes scale a run: the full sizes are the benchmark, the quick ones only
// keep the smoke test fast.
type sizes struct {
	keys, preload int
}

var (
	fullSizes  = sizes{keys: 100000, preload: 50000}
	quickSizes = sizes{keys: 2000, preload: 1000}
)

func (w spec) clusterOptions(replicas int) cluster.Options {
	shards := w.shards
	if replicas == 1 {
		shards = 1
	}
	return cluster.Options{
		NetworkName: w.network,
		Shards:      shards,
		Replicas:    replicas,
		Mode:        w.mode,
		Engine:      "ht",
		CodecName:   "binary",
	}
}

// generator returns the seeded op stream for one caller. The zipfian tables
// are shared between callers through dist.
func (w spec) generator(dist workload.KeyDist, mix workload.Mix, seed int64, caller int) (*workload.Generator, error) {
	return workload.NewGenerator(workload.Options{
		Dist: dist, Mix: mix, KeySize: keySize, ValueSize: valueSize,
		Seed: workload.SplitRand(seed, caller),
	})
}

func (w spec) dist(sz sizes) workload.KeyDist {
	if w.zipf {
		return workload.NewZipfian(sz.keys)
	}
	return workload.Uniform{Keys: sz.keys}
}

// selectWorkloads resolves a comma-separated list of names ("all" = every
// workload, in the declared order).
func selectWorkloads(list string) ([]spec, error) {
	if list == "all" {
		return workloads, nil
	}
	var out []spec
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}
