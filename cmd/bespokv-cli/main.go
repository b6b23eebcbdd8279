// Command bespokv-cli is the operator's client: key operations against a
// running cluster, plus map administration against the coordinator.
//
//	bespokv-cli -coordinator 127.0.0.1:7000 put mykey myvalue
//	bespokv-cli -coordinator 127.0.0.1:7000 get mykey
//	bespokv-cli -coordinator 127.0.0.1:7000 del mykey
//	bespokv-cli -coordinator 127.0.0.1:7000 scan a z 10
//	bespokv-cli -coordinator 127.0.0.1:7000 map
//	bespokv-cli -coordinator 127.0.0.1:7000 setmap cluster.json
//	bespokv-cli -coordinator 127.0.0.1:7000 transition aa eventual
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"bespokv/internal/client"
	"bespokv/internal/coordinator"
	"bespokv/internal/obs"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

func main() {
	var (
		coordAddr = flag.String("coordinator", "127.0.0.1:7000", "coordinator address")
		network   = flag.String("network", "tcp", "transport (tcp or inproc)")
		table     = flag.String("table", "", "table name (default table when empty)")
		level     = flag.String("level", "default", "read consistency: default, strong, eventual")
		obsAddr   = flag.String("obs-addr", "", "HTTP observability address (/metrics, /statusz, /tracez, pprof); empty disables")
	)
	flag.Parse()
	if o, err := obs.Start(*obsAddr, nil); err != nil {
		log.Fatal(err)
	} else if o != nil {
		defer o.Close()
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	net, err := transport.Lookup(*network)
	if err != nil {
		log.Fatal(err)
	}

	switch args[0] {
	case "map", "setmap", "transition", "join", "drain", "rebalance", "migration", "top", "alerts", "rsm":
		admin, err := coordinator.DialCoordinator(net, *coordAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer admin.Close()
		runAdmin(admin, args)
		return
	}

	codec, err := wire.LookupCodec("binary")
	if err != nil {
		log.Fatal(err)
	}
	cli, err := client.New(client.Config{
		Network:         net,
		Codec:           codec,
		CoordinatorAddr: *coordAddr,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	switch args[0] {
	case "put":
		need(args, 3)
		if err := cli.Put(*table, []byte(args[1]), []byte(args[2])); err != nil {
			log.Fatal(err)
		}
		fmt.Println("OK")
	case "get":
		need(args, 2)
		lv := wire.LevelDefault
		switch *level {
		case "strong":
			lv = wire.LevelStrong
		case "eventual":
			lv = wire.LevelEventual
		}
		v, ok, err := cli.GetLevel(*table, []byte(args[1]), lv)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			fmt.Println("(not found)")
			os.Exit(1)
		}
		fmt.Printf("%s\n", v)
	case "del":
		need(args, 2)
		found, err := cli.Del(*table, []byte(args[1]))
		if err != nil {
			log.Fatal(err)
		}
		if !found {
			fmt.Println("(not found)")
			os.Exit(1)
		}
		fmt.Println("OK")
	case "scan":
		need(args, 3)
		limit := 0
		if len(args) > 3 {
			limit, err = strconv.Atoi(args[3])
			if err != nil {
				log.Fatal(err)
			}
		}
		kvs, err := cli.GetRange(*table, []byte(args[1]), []byte(args[2]), limit)
		if err != nil {
			log.Fatal(err)
		}
		for _, kv := range kvs {
			fmt.Printf("%s\t%s\n", kv.Key, kv.Value)
		}
	case "mktable":
		need(args, 2)
		if err := cli.CreateTable(args[1]); err != nil {
			log.Fatal(err)
		}
		fmt.Println("OK")
	case "rmtable":
		need(args, 2)
		if err := cli.DeleteTable(args[1]); err != nil {
			log.Fatal(err)
		}
		fmt.Println("OK")
	default:
		usage()
	}
}

func runAdmin(admin *coordinator.Client, args []string) {
	switch args[0] {
	case "top":
		// One merged cluster snapshot, same rendering as /clusterz?format=text.
		snap, err := admin.Telemetry()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(snap.Text())
	case "alerts":
		snap, err := admin.Telemetry()
		if err != nil {
			log.Fatal(err)
		}
		out, err := json.MarshalIndent(map[string]any{"alerts": snap.Alerts}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
	case "map":
		m, err := admin.GetMap()
		if err != nil {
			log.Fatal(err)
		}
		out, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
	case "setmap":
		need(args, 2)
		raw, err := os.ReadFile(args[1])
		if err != nil {
			log.Fatal(err)
		}
		var m topology.Map
		if err := json.Unmarshal(raw, &m); err != nil {
			log.Fatal(err)
		}
		epoch, err := admin.SetMap(&m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("installed epoch %d\n", epoch)
	case "transition":
		need(args, 3)
		to := topology.Mode{
			Topology:    topology.Topology(args[1]),
			Consistency: topology.Consistency(args[2]),
		}
		if !to.Valid() {
			log.Fatalf("invalid mode %s+%s", args[1], args[2])
		}
		// The operator supplies new controlets out of band, then uses
		// the current shards as the new layout when only the
		// consistency handling changes in place.
		m, err := admin.GetMap()
		if err != nil {
			log.Fatal(err)
		}
		epoch, err := admin.BeginTransition(to, m.Shards)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("transition to %s started at epoch %d\n", to, epoch)
	case "join":
		// The operator boots the new shard's controlet–datalet pairs out
		// of band, then hands their addresses here as a shard JSON.
		need(args, 2)
		raw, err := os.ReadFile(args[1])
		if err != nil {
			log.Fatal(err)
		}
		var shard topology.Shard
		if err := json.Unmarshal(raw, &shard); err != nil {
			log.Fatal(err)
		}
		start, err := admin.JoinNode(shard)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("migration %s started: sources=%v moved≈%.1f%%\n",
			start.ID, start.Sources, start.MovedFraction*100)
	case "drain":
		need(args, 2)
		start, err := admin.DrainNode(args[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("migration %s started: sources=%v moved≈%.1f%%\n",
			start.ID, start.Sources, start.MovedFraction*100)
	case "rebalance":
		need(args, 2)
		raw, err := os.ReadFile(args[1])
		if err != nil {
			log.Fatal(err)
		}
		var shards []topology.Shard
		if err := json.Unmarshal(raw, &shards); err != nil {
			log.Fatal(err)
		}
		start, err := admin.Rebalance(shards)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("migration %s started: sources=%v moved≈%.1f%%\n",
			start.ID, start.Sources, start.MovedFraction*100)
	case "rsm":
		st, err := admin.RSMStatus()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("member  %s (%s)\n", st.ID, st.State)
		fmt.Printf("leader  %s term %d\n", st.Leader, st.Term)
		fmt.Printf("log     commit=%d applied=%d last=%d snapshot=%d\n",
			st.CommitIndex, st.AppliedIndex, st.LastIndex, st.SnapshotIndex)
		for _, m := range st.Members {
			if m.Self {
				fmt.Printf("  %-8s %-20s self\n", m.ID, m.Addr)
				continue
			}
			fmt.Printf("  %-8s %-20s match=%d next=%d lag=%d ack_age=%dms\n",
				m.ID, m.Addr, m.Match, m.Next, m.LagEntries, m.AckAgeMS)
		}
	case "migration":
		st, err := admin.MigrationStatus()
		if err != nil {
			log.Fatal(err)
		}
		if st.Run == nil {
			fmt.Println("(no migration has run)")
			return
		}
		out, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
	}
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bespokv-cli [flags] <command>

commands:
  put <key> <value>        write a pair
  get <key>                read a value (-level strong|eventual)
  del <key>                delete a key
  scan <start> <end> [n]   ordered range query
  mktable <name>           create a table
  rmtable <name>           drop a table
  map                      print the cluster map
  setmap <file.json>       install a cluster map
  transition <topo> <cons> start a mode transition in place
  join <shard.json>        add a shard; migrate its ring share in online
  drain <shard-id>         remove a shard; migrate its keyspace out online
  rebalance <shards.json>  migrate to an arbitrary target shard set
  migration                print the active (or last) migration run
  top                      cluster telemetry: per-shard rates, hot keys, alerts
  alerts                   SLO alert states as JSON
  rsm                      control-plane replication: leader, term, member lag`)
	os.Exit(2)
}
