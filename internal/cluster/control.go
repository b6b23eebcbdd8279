package cluster

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"bespokv/internal/coordinator"
	"bespokv/internal/dlm"
	"bespokv/internal/rsm"
	"bespokv/internal/sharedlog"
	"bespokv/internal/store/wal"
	"bespokv/internal/transport"
)

// ctlAddrSeq keeps replicated control-plane addresses unique across
// clusters sharing one process-wide inproc namespace.
var ctlAddrSeq atomic.Uint64

// controlPeers builds the fixed ID→address table for one control group.
func controlPeers(service string, n int, seq uint64) ([]string, map[string]string) {
	ids := make([]string, 0, n)
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-%d", service, i)
		ids = append(ids, id)
		peers[id] = fmt.Sprintf("ctl-%s-%d-%d", service, seq, i)
	}
	return ids, peers
}

// groupConfig builds one member's RSM config; every member gets its own
// MemFS so a member kill loses nothing another member needs.
func (c *Cluster) groupConfig(id string, peers map[string]string) *rsm.GroupConfig {
	return &rsm.GroupConfig{
		ID:              id,
		Peers:           peers,
		Dir:             "ctl",
		FS:              wal.NewMemFS(),
		ElectionTimeout: c.Opts.ControlElectionTimeout,
	}
}

// startReplicatedControl boots the three control-plane RSM groups. Each
// member dials and listens through its own fabric host view, so nemesis
// schedules can kill or partition exactly the current leader.
func (c *Cluster) startReplicatedControl(net transport.Network) error {
	n := c.Opts.ReplicatedControl
	seq := ctlAddrSeq.Add(1)
	c.ctlAddrs = map[string]string{}

	coordIDs, coordPeers := controlPeers("coord", n, seq)
	for _, id := range coordIDs {
		srv, err := coordinator.Serve(coordinator.Config{
			Network:          c.hostNet(net, id),
			Addr:             coordPeers[id],
			HeartbeatTimeout: c.Opts.HeartbeatTimeout,
			DisableFailover:  c.Opts.DisableFailover,
			SLOs:             c.Opts.SLOs,
			Replication:      c.groupConfig(id, coordPeers),
			Logf:             c.Opts.Logf,
		})
		if err != nil {
			return err
		}
		c.Coords = append(c.Coords, srv)
		c.ctlAddrs[id] = coordPeers[id]
	}
	c.coordIDs = coordIDs
	c.Coord = c.Coords[0]

	dlmIDs, dlmPeers := controlPeers("dlm", n, seq)
	for _, id := range dlmIDs {
		srv, err := dlm.Serve(dlm.Config{
			Network:     c.hostNet(net, id),
			Addr:        dlmPeers[id],
			Replication: c.groupConfig(id, dlmPeers),
			Logf:        c.Opts.Logf,
		})
		if err != nil {
			return err
		}
		c.DLMs = append(c.DLMs, srv)
		c.ctlAddrs[id] = dlmPeers[id]
	}
	c.dlmIDs = dlmIDs
	c.DLM = c.DLMs[0]

	logIDs, logPeers := controlPeers("log", n, seq)
	for _, id := range logIDs {
		srv, err := sharedlog.Serve(sharedlog.Config{
			Network:        c.hostNet(net, id),
			Addr:           logPeers[id],
			SegmentEntries: c.Opts.LogSegmentEntries,
			Replication:    c.groupConfig(id, logPeers),
			Logf:           c.Opts.Logf,
		})
		if err != nil {
			return err
		}
		c.Logs = append(c.Logs, srv)
		c.ctlAddrs[id] = logPeers[id]
	}
	c.logIDs = logIDs
	c.Log = c.Logs[0]

	// Wait for every group to elect before the data plane starts talking
	// to it; Start's own SetMap retries would mask slow elections, but
	// failing fast here makes misconfigurations obvious.
	if _, err := waitLeader("coordinator", c.Coords, 5*time.Second); err != nil {
		return err
	}
	if _, err := waitLeader("dlm", c.DLMs, 5*time.Second); err != nil {
		return err
	}
	_, err := waitLeader("sequencer", c.Logs, 5*time.Second)
	return err
}

// waitLeader blocks until one of a control group's members leads, returning
// its index.
func waitLeader[S interface{ IsLeader() bool }](service string, members []S, timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, s := range members {
			if s.IsLeader() {
				return i, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, fmt.Errorf("cluster: no %s leader within %v", service, timeout)
}

// controlAddr returns what clients should dial for one control service: the
// group's full member list (comma-joined; rsm.Dial splits it) in replicated
// mode, the single standalone server otherwise.
func (c *Cluster) controlAddr(ids []string, standalone interface{ Addr() string }) string {
	if len(ids) == 0 {
		return standalone.Addr()
	}
	addrs := make([]string, 0, len(ids))
	for _, id := range ids {
		addrs = append(addrs, c.ctlAddrs[id])
	}
	return strings.Join(addrs, ",")
}

// CoordLeader returns the coordinator member currently leading and its
// fabric host name ("" and nil when no member leads right now).
func (c *Cluster) CoordLeader() (string, *coordinator.Server) {
	for i, s := range c.Coords {
		if s.IsLeader() {
			return c.coordIDs[i], s
		}
	}
	return "", nil
}

// WaitCoordLeader blocks until some coordinator member leads, returning
// its fabric host name.
func (c *Cluster) WaitCoordLeader(timeout time.Duration) (string, error) {
	i, err := waitLeader("coordinator", c.Coords, timeout)
	if err != nil {
		return "", err
	}
	return c.coordIDs[i], nil
}

// KillCoordLeader closes the coordinator member currently leading —
// the control-plane nemesis — returning its fabric host name.
func (c *Cluster) KillCoordLeader() (string, error) {
	id, s := c.CoordLeader()
	if s == nil {
		return "", fmt.Errorf("cluster: no coordinator leader to kill")
	}
	_ = s.Close()
	return id, nil
}

// ControlHosts returns the fabric host names of all control-plane members
// (empty in standalone mode), for building nemesis schedules.
func (c *Cluster) ControlHosts() []string {
	var hs []string
	hs = append(hs, c.coordIDs...)
	hs = append(hs, c.dlmIDs...)
	hs = append(hs, c.logIDs...)
	return hs
}
