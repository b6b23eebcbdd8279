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

// controlMember is what startGroup needs of a control service's server.
type controlMember interface {
	Addr() string
	IsLeader() bool
}

// startGroup boots one control service's group of n members and waits for
// its leader. Members are named by fabric host (service-i; a group of one
// is the bare service name), and each dials and listens through its own
// host view, so nemesis schedules can kill or partition exactly the
// current leader. A larger group's members get fixed inproc addresses and
// a MemFS each, so a member kill loses nothing another member needs; a
// group of one listens wherever the network puts it and is its own group,
// keeping nothing.
func startGroup[S controlMember](c *Cluster, net transport.Network, service string, n int,
	serve func(net transport.Network, addr string, g *rsm.GroupConfig) (S, error)) ([]S, []string, error) {
	ids := []string{service}
	peers := map[string]string{service: listenAddr(c.Opts.NetworkName)}
	if n > 1 {
		ids, peers = nil, map[string]string{}
		seq := ctlAddrSeq.Add(1)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("%s-%d", service, i)
			ids = append(ids, id)
			peers[id] = fmt.Sprintf("ctl-%s-%d-%d", service, seq, i)
		}
	}
	var members []S
	for _, id := range ids {
		var g *rsm.GroupConfig
		if n > 1 {
			g = &rsm.GroupConfig{ID: id, Peers: peers, Dir: "ctl", FS: wal.NewMemFS(),
				ElectionTimeout: c.Opts.ControlElectionTimeout}
		}
		srv, err := serve(c.hostNet(net, id), peers[id], g)
		if err != nil {
			return members, ids, err
		}
		members = append(members, srv)
		c.ctlAddrs[id] = srv.Addr()
	}
	// Wait for the leader before the data plane starts talking to the
	// group (a group of one leads as it starts); Start's own SetMap retries
	// would mask a slow election, but failing fast here makes
	// misconfigurations obvious.
	_, err := waitLeader(service, members, 5*time.Second)
	return members, ids, err
}

// startControl boots the three control-plane RSM groups,
// Options.ReplicatedControl members each (at least one).
func (c *Cluster) startControl(net transport.Network) (err error) {
	n := max(c.Opts.ReplicatedControl, 1)
	c.ctlAddrs = map[string]string{}
	c.Coords, c.coordIDs, err = startGroup(c, net, "coord", n,
		func(net transport.Network, addr string, g *rsm.GroupConfig) (*coordinator.Server, error) {
			return coordinator.Serve(coordinator.Config{Network: net, Addr: addr,
				HeartbeatTimeout: c.Opts.HeartbeatTimeout, DisableFailover: c.Opts.DisableFailover,
				SLOs: c.Opts.SLOs, Replication: g, Logf: c.Opts.Logf})
		})
	if err != nil {
		return err
	}
	c.Coord = c.Coords[0]
	c.DLMs, c.dlmIDs, err = startGroup(c, net, "dlm", n,
		func(net transport.Network, addr string, g *rsm.GroupConfig) (*dlm.Server, error) {
			return dlm.Serve(dlm.Config{Network: net, Addr: addr, Replication: g, Logf: c.Opts.Logf})
		})
	if err != nil {
		return err
	}
	c.DLM = c.DLMs[0]
	c.Logs, c.logIDs, err = startGroup(c, net, "log", n,
		func(net transport.Network, addr string, g *rsm.GroupConfig) (*sharedlog.Server, error) {
			return sharedlog.Serve(sharedlog.Config{Network: net, Addr: addr,
				SegmentEntries: c.Opts.LogSegmentEntries, Replication: g, Logf: c.Opts.Logf})
		})
	if err != nil {
		return err
	}
	c.Log = c.Logs[0]
	return nil
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

// controlAddr returns what clients should dial for one control service:
// the group's full member list, comma-joined (rsm.Dial splits it).
func (c *Cluster) controlAddr(ids []string) string {
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
