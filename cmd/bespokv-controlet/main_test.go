package main

import (
	"testing"
	"time"

	"bespokv/internal/topology"
)

func TestParseConfig(t *testing.T) {
	const base = `"node_id": "s0-r0", "shard_id": "shard-0", "data_addr": "127.0.0.1:7201",
		"ctl_addr": "127.0.0.1:7301", "datalet": "127.0.0.1:7101", "topology": "ms", "consistency": "strong"`
	for _, tc := range []struct {
		name  string
		extra string
		fence time.Duration
	}{
		// A controlet a coordinator can fail over fences itself when the
		// coordinator would declare it dead: 5 s unless the file says.
		{"coordinator, default timeout", `, "coordinator": "127.0.0.1:7000"`, 5 * time.Second},
		{"coordinator, own timeout", `, "coordinator": "127.0.0.1:7000", "heartbeat_timeout": "800ms"`, 800 * time.Millisecond},
		{"coordinator, fencing off", `, "coordinator": "127.0.0.1:7000", "heartbeat_timeout": "0s"`, 0},
		// Nobody can replace a static controlet: it never fences.
		{"no coordinator", `, "heartbeat_timeout": "2s"`, 0},
	} {
		cfg, err := parseConfig([]byte("{" + base + tc.extra + "}"))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cfg.FenceTimeout != tc.fence {
			t.Errorf("%s: FenceTimeout %v, want %v", tc.name, cfg.FenceTimeout, tc.fence)
		}
		if cfg.NodeID != "s0-r0" || cfg.ShardID != "shard-0" || cfg.DataAddr != "127.0.0.1:7201" ||
			cfg.CtlAddr != "127.0.0.1:7301" || cfg.DataletAddr != "127.0.0.1:7101" {
			t.Errorf("%s: addresses not mapped: %+v", tc.name, cfg)
		}
		if cfg.Mode != (topology.Mode{Topology: topology.MS, Consistency: topology.Strong}) {
			t.Errorf("%s: mode %v", tc.name, cfg.Mode)
		}
		if cfg.Network.Name() != "tcp" || cfg.Codec.Name() != "binary" || cfg.DataletCodec.Name() != "binary" {
			t.Errorf("%s: defaults not applied: network %s codec %s datalet codec %s",
				tc.name, cfg.Network.Name(), cfg.Codec.Name(), cfg.DataletCodec.Name())
		}
	}
	for _, bad := range []string{`"heartbeat_timeout": "soon"`, `"heartbeat_timeout": "-1s"`, `"codec": "morse"`} {
		if _, err := parseConfig([]byte("{" + base + ", " + bad + "}")); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
}
