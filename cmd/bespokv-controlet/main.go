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
//	  "sharedlog":   "127.0.0.1:7002"
//	}
//
// "datalet" is the local datalet's TCP address or, for a datalet started
// with -local-addr on the same machine, "unix:<path>" of its socket file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"bespokv/internal/controlet"
	"bespokv/internal/obs"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

type fileConfig struct {
	NodeID       string `json:"node_id"`
	ShardID      string `json:"shard_id"`
	Network      string `json:"network,omitempty"`
	DataAddr     string `json:"data_addr"`
	CtlAddr      string `json:"ctl_addr"`
	Codec        string `json:"codec,omitempty"`
	Datalet      string `json:"datalet"`
	DataletCodec string `json:"datalet_codec,omitempty"`
	Topology     string `json:"topology"`
	Consistency  string `json:"consistency"`
	Coordinator  string `json:"coordinator,omitempty"`
	SharedLog    string `json:"sharedlog,omitempty"`
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
	var fc fileConfig
	if err := json.Unmarshal(raw, &fc); err != nil {
		log.Fatalf("parse %s: %v", *configPath, err)
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
	net, err := transport.Lookup(fc.Network)
	if err != nil {
		log.Fatal(err)
	}
	codec, err := wire.LookupCodec(fc.Codec)
	if err != nil {
		log.Fatal(err)
	}
	dataletCodec, err := wire.LookupCodec(fc.DataletCodec)
	if err != nil {
		log.Fatal(err)
	}
	mode := topology.Mode{
		Topology:    topology.Topology(fc.Topology),
		Consistency: topology.Consistency(fc.Consistency),
	}
	s, err := controlet.Serve(controlet.Config{
		NodeID:          fc.NodeID,
		ShardID:         fc.ShardID,
		Network:         net,
		DataAddr:        fc.DataAddr,
		CtlAddr:         fc.CtlAddr,
		Codec:           codec,
		DataletAddr:     fc.Datalet,
		DataletCodec:    dataletCodec,
		Mode:            mode,
		CoordinatorAddr: fc.Coordinator,
		SharedLogAddr:   fc.SharedLog,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bespokv-controlet %s (%s, shard %s): data=%s ctl=%s datalet=%s\n",
		fc.NodeID, mode, fc.ShardID, s.DataAddr(), s.CtlAddr(), fc.Datalet)
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
