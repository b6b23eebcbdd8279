package coordinator

import (
	"time"

	"bespokv/internal/rsm"
	"bespokv/internal/telemetry"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
)

// Client is the typed method set of the coordinator control plane over an
// rsm.Client, which finds and follows the group's leader (the one member
// of a group of one). Errors the coordinator answers with — and
// rpc.ErrCallTimeout, where the call may have executed — come back
// untouched.
type Client struct {
	rc *rsm.Client
}

// DialCoordinator connects to a coordinator. addr may be one address or a
// comma-separated list of replicated control-plane members.
func DialCoordinator(network transport.Network, addr string) (*Client, error) {
	rc, err := rsm.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &Client{rc: rc}, nil
}

// SetCallTimeout caps how long each RPC may wait for its response. Control
// loops that must notice a partitioned coordinator quickly (heartbeats, map
// refreshes) set this well below the default; note WatchMap long-polls, so
// its timeout must stay under the call timeout.
func (c *Client) SetCallTimeout(d time.Duration) { c.rc.SetCallTimeout(d) }

// Addr reports the member the client currently targets (tests, logs).
func (c *Client) Addr() string { return c.rc.Addr() }

func (c *Client) call(method string, args, reply any) error {
	return c.rc.Call(0, method, args, reply, 0)
}

// GetMap fetches the current cluster map.
func (c *Client) GetMap() (*topology.Map, error) {
	var m topology.Map
	if err := c.call("GetMap", struct{}{}, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// WatchMap blocks until a map newer than since exists (or the timeout
// elapses, returning the current map).
func (c *Client) WatchMap(since uint64, timeout time.Duration) (*topology.Map, error) {
	var m topology.Map
	args := WatchArgs{Since: since, TimeoutMs: int(timeout / time.Millisecond)}
	if err := c.call("WatchMap", args, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// LeaseMap is WatchMap plus a lease grant: the returned map may be trusted
// for direct datalet reads for the returned TTL. A zero TTL (or an error —
// e.g. a read-only follower that does not grant leases) means no lease;
// the caller must route reads through controlets.
func (c *Client) LeaseMap(since uint64, timeout time.Duration) (*topology.Map, time.Duration, error) {
	var reply LeaseReply
	args := WatchArgs{Since: since, TimeoutMs: int(timeout / time.Millisecond)}
	if err := c.call("LeaseMap", args, &reply); err != nil {
		return nil, 0, err
	}
	return reply.Map, time.Duration(reply.TTLMs) * time.Millisecond, nil
}

// SetMap installs a map (bootstrap / admin), returning the assigned epoch.
func (c *Client) SetMap(m *topology.Map) (uint64, error) {
	var reply HeartbeatReply
	if err := c.call("SetMap", m, &reply); err != nil {
		return 0, err
	}
	return reply.Epoch, nil
}

// Heartbeat reports liveness for a node pair and learns the current epoch.
func (c *Client) Heartbeat(nodeID string, dataletOK bool) (uint64, error) {
	var reply HeartbeatReply
	if err := c.call("Heartbeat", Heartbeat{NodeID: nodeID, DataletOK: dataletOK}, &reply); err != nil {
		return 0, err
	}
	return reply.Epoch, nil
}

// RegisterStandby adds a spare controlet–datalet pair to the failover pool.
func (c *Client) RegisterStandby(n topology.Node) error {
	return c.call("RegisterStandby", n, nil)
}

// LeaderElect promotes a new master for the shard, excluding a failed node.
func (c *Client) LeaderElect(shardID, exclude string) (topology.Node, error) {
	var n topology.Node
	err := c.call("LeaderElect", LeaderElectArgs{ShardID: shardID, Exclude: exclude}, &n)
	return n, err
}

// BeginTransition starts a topology/consistency switch to mode to with the
// given new-mode controlets.
func (c *Client) BeginTransition(to topology.Mode, newShards []topology.Shard) (uint64, error) {
	var reply HeartbeatReply
	if err := c.call("BeginTransition", TransitionArgs{To: to, NewShards: newShards}, &reply); err != nil {
		return 0, err
	}
	return reply.Epoch, nil
}

// CompleteTransition forces the in-flight transition to finish.
func (c *Client) CompleteTransition() (uint64, error) {
	var reply HeartbeatReply
	if err := c.call("CompleteTransition", struct{}{}, &reply); err != nil {
		return 0, err
	}
	return reply.Epoch, nil
}

// Rejoin re-admits a restarted node (with durable state) to its shard; the
// reply reports how many records the catch-up transferred and whether it
// was an incremental delta.
func (c *Client) Rejoin(shardID string, n topology.Node) (RejoinReply, error) {
	var reply RejoinReply
	err := c.call("Rejoin", RejoinArgs{Node: n, ShardID: shardID}, &reply)
	return reply, err
}

// JoinNode starts an online rebalance that adds shard to the ring; its
// share of the keyspace migrates in with zero downtime. Poll
// MigrationStatus for completion.
func (c *Client) JoinNode(shard topology.Shard) (MigrationStartReply, error) {
	var reply MigrationStartReply
	err := c.call("JoinNode", JoinArgs{Shard: shard}, &reply)
	return reply, err
}

// DrainNode starts an online rebalance that removes the shard, spreading
// its keyspace over the survivors.
func (c *Client) DrainNode(shardID string) (MigrationStartReply, error) {
	var reply MigrationStartReply
	err := c.call("DrainNode", DrainArgs{ShardID: shardID}, &reply)
	return reply, err
}

// Rebalance starts an online migration to an arbitrary target shard set.
func (c *Client) Rebalance(shards []topology.Shard) (MigrationStartReply, error) {
	var reply MigrationStartReply
	err := c.call("Rebalance", RebalanceArgs{Shards: shards}, &reply)
	return reply, err
}

// RSMStatus reports the control-plane replication state of the member the
// client currently targets (the bespokv-cli rsm verb).
func (c *Client) RSMStatus() (rsm.Status, error) {
	var st rsm.Status
	err := c.call("RSM.Status", struct{}{}, &st)
	return st, err
}

// TelemetryReport ships node telemetry snapshots to the aggregator;
// controlets call it on every heartbeat tick over the same connection.
func (c *Client) TelemetryReport(reports []telemetry.NodeSnapshot) error {
	return c.call("TelemetryReport", TelemetryReportArgs{Reports: reports}, nil)
}

// Telemetry fetches the merged cluster-wide view (`bespokv-cli top`).
func (c *Client) Telemetry() (telemetry.ClusterSnapshot, error) {
	var snap telemetry.ClusterSnapshot
	err := c.call("Telemetry", struct{}{}, &snap)
	return snap, err
}

// MigrationStatus reports the active (or most recent) rebalance run.
func (c *Client) MigrationStatus() (MigrationStatusReply, error) {
	var reply MigrationStatusReply
	err := c.call("MigrationStatus", struct{}{}, &reply)
	return reply, err
}

// Close tears down the connection; a call in flight fails with
// rsm.ErrClientClosed.
func (c *Client) Close() error { return c.rc.Close() }
