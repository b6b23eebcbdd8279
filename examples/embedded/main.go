// Embedded bespokv: a whole distributed store inside one process, for
// applications that want "a datalet, scaled out" without running separate
// binaries — the distilled form of the paper's pitch that developers
// "simply drop a datalet into bespokv and offload the messy plumbing of
// distributed systems support to the framework".
//
//	go run ./examples/embedded
package main

import (
	"fmt"
	"log"

	"bespokv/internal/cluster"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

func main() {
	// One call: coordinator, DLM, shared log, 2 shards × 3 B+-tree
	// datalets with chain replication, range partitioning, and a spare
	// pair for automatic failover.
	c, err := cluster.Start(cluster.Options{
		Shards:      2,
		Replicas:    3,
		Engine:      "btree",
		Mode:        topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Partitioner: topology.RangePartitioner,
		Standbys:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	cli, err := c.Client()
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	fmt.Println("service up in mode", c.Opts.Mode)

	// The Table II client API.
	if err := cli.CreateTable("sessions"); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 26; i++ {
		k := []byte(fmt.Sprintf("%c-session", 'a'+i))
		if err := cli.Put("sessions", k, []byte(fmt.Sprintf("user-%02d", i))); err != nil {
			log.Fatal(err)
		}
	}
	v, ok, err := cli.Get("sessions", []byte("m-session"))
	if err != nil || !ok {
		log.Fatalf("get: %v (found=%v)", err, ok)
	}
	fmt.Printf("strong read: m-session = %s\n", v)

	// Per-request consistency and range queries.
	if _, _, err := cli.GetLevel("sessions", []byte("m-session"), wire.LevelEventual); err != nil {
		log.Fatal(err)
	}
	kvs, err := cli.GetRange("sessions", []byte("j"), []byte("p"), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range [j,p): %d sessions\n", len(kvs))

	// Live mode switch — the framework's signature move.
	if err := c.Transition(topology.Mode{Topology: topology.AA, Consistency: topology.Eventual}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("switched live to", c.Opts.Mode, "— no downtime, no data migration")
	if err := cli.Put("sessions", []byte("post-switch"), []byte("ok")); err != nil {
		log.Fatal(err)
	}

	// Chaos: kill a replica; the coordinator repairs around it and the
	// standby recovers the data.
	c.KillNode(0, 1)
	if err := cli.Put("sessions", []byte("post-kill"), []byte("ok")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("survived a replica kill; service still writable")
}
