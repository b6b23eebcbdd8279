// Command bespokv-controlet runs one control-plane proxy in front of one
// datalet, turning it into a member of a scalable, fault-tolerant
// distributed KV store. Configuration follows the paper's artifact: a JSON
// file with the deployment parameters.
//
//	bespokv-controlet -config c0.json
//
// Example config:
//
//	{
//	  "node_id":     "s0-r0",
//	  "shard_id":    "shard-0",
//	  "data_addr":   "127.0.0.1:7201",
//	  "ctl_addr":    "127.0.0.1:7301",
//	  "datalet":     "127.0.0.1:7101",
//	  "datalet_codec": "binary",
//	  "topology":    "ms",
//	  "consistency": "strong",
//	  "coordinator": "127.0.0.1:7000",
//	  "sharedlog":   "127.0.0.1:7002",
//	  "heartbeat_timeout": "5s"
//	}
//
// "datalet" is the local datalet's TCP address or, for a datalet started
// with -local-addr on the same machine, "unix:<path>" of its socket file.
//
// "heartbeat_timeout" is the coordinator's -heartbeat-timeout (both default
// to 5s). With a coordinator, a controlet that has had no heartbeat
// acknowledged for that long fences itself: an MS+SC head or AA+SC owner cut
// off from the coordinator stops acking writes when its replacement can be
// promoted. "0s" turns fencing off, for a coordinator run with
// -disable-failover.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bespokv/internal/controlet"
	"bespokv/internal/obs"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

type fileConfig struct {
	NodeID           string `json:"node_id"`
	ShardID          string `json:"shard_id"`
	Network          string `json:"network,omitempty"`
	DataAddr         string `json:"data_addr"`
	CtlAddr          string `json:"ctl_addr"`
	Codec            string `json:"codec,omitempty"`
	Datalet          string `json:"datalet"`
	DataletCodec     string `json:"datalet_codec,omitempty"`
	Topology         string `json:"topology"`
	Consistency      string `json:"consistency"`
	Coordinator      string `json:"coordinator,omitempty"`
	SharedLog        string `json:"sharedlog,omitempty"`
	HeartbeatTimeout string `json:"heartbeat_timeout,omitempty"`
}

// parseConfig maps a configuration file onto the controlet's Config,
// filling in the defaults.
func parseConfig(raw []byte) (controlet.Config, error) {
	var fc fileConfig
	if err := json.Unmarshal(raw, &fc); err != nil {
		return controlet.Config{}, err
	}
	if fc.Network == "" {
		fc.Network = "tcp"
	}
	if fc.Codec == "" {
		fc.Codec = "binary"
	}
	if fc.DataletCodec == "" {
		fc.DataletCodec = fc.Codec
	}
	if fc.HeartbeatTimeout == "" {
		fc.HeartbeatTimeout = "5s" // the coordinator's default
	}
	net, err := transport.Lookup(fc.Network)
	if err != nil {
		return controlet.Config{}, err
	}
	codec, err := wire.LookupCodec(fc.Codec)
	if err != nil {
		return controlet.Config{}, err
	}
	dataletCodec, err := wire.LookupCodec(fc.DataletCodec)
	if err != nil {
		return controlet.Config{}, err
	}
	hbTimeout, err := time.ParseDuration(fc.HeartbeatTimeout)
	if err != nil || hbTimeout < 0 {
		return controlet.Config{}, fmt.Errorf("heartbeat_timeout %q: want a duration >= 0", fc.HeartbeatTimeout)
	}
	cfg := controlet.Config{
		NodeID:       fc.NodeID,
		ShardID:      fc.ShardID,
		Network:      net,
		DataAddr:     fc.DataAddr,
		CtlAddr:      fc.CtlAddr,
		Codec:        codec,
		DataletAddr:  fc.Datalet,
		DataletCodec: dataletCodec,
		Mode: topology.Mode{
			Topology:    topology.Topology(fc.Topology),
			Consistency: topology.Consistency(fc.Consistency),
		},
		CoordinatorAddr: fc.Coordinator,
		SharedLogAddr:   fc.SharedLog,
	}
	if fc.Coordinator != "" {
		cfg.FenceTimeout = hbTimeout
	}
	return cfg, nil
}

func main() {
	configPath := flag.String("config", "", "JSON configuration file (required)")
	obsAddr := flag.String("obs-addr", "", "HTTP observability address (/metrics, /statusz, /tracez, pprof); empty disables")
	flag.Parse()
	if *configPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	raw, err := os.ReadFile(*configPath)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := parseConfig(raw)
	if err != nil {
		log.Fatalf("parse %s: %v", *configPath, err)
	}
	s, err := controlet.Serve(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bespokv-controlet %s (%s, shard %s): data=%s ctl=%s datalet=%s\n",
		cfg.NodeID, cfg.Mode, cfg.ShardID, s.DataAddr(), s.CtlAddr(), cfg.DataletAddr)
	o, err := obs.Start(*obsAddr, s.Status)
	if err != nil {
		log.Fatal(err)
	}
	if o != nil {
		fmt.Printf("observability on http://%s/\n", o.Addr())
		defer o.Close()
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
	_ = s.Close()
}
