package coordinator

import (
	"bespokv/internal/metrics"
)

// Control-plane metrics: heartbeat arrivals, failover phases and epoch
// history. All of these are control-path (per-heartbeat or rarer), so the
// labeled registry lookups at init are plenty.
var (
	coordHeartbeats = metrics.Default.Counter("bespokv_coordinator_heartbeats_total")
	coordFailovers  = metrics.Default.Counter("bespokv_coordinator_failovers_total")
	// Failover repair phase: FailNode from detection to the repaired map
	// being pushed (chain repair / master promotion).
	coordFailoverLat = metrics.Default.Histogram("bespokv_coordinator_failover_seconds")
	// Standby recovery phase: recoverOnto from join to read-exposure.
	coordRecoveries    = metrics.Default.Counter("bespokv_coordinator_recoveries_total")
	coordRecoveryFails = metrics.Default.Counter("bespokv_coordinator_recovery_failures_total")
	coordRecoveryLat   = metrics.Default.Histogram("bespokv_coordinator_recovery_seconds")
	coordMapPushes     = metrics.Default.Counter("bespokv_coordinator_map_pushes_total")
	coordEpoch         = metrics.Default.Gauge("bespokv_coordinator_epoch")
	// Elastic membership: rebalance runs (join/drain/rebalance) and their
	// end-to-end latency from plan to GC.
	coordRebalances     = metrics.Default.Counter("bespokv_coordinator_rebalances_total")
	coordRebalanceFails = metrics.Default.Counter("bespokv_coordinator_rebalance_failures_total")
	coordRebalanceLat   = metrics.Default.Histogram("bespokv_coordinator_rebalance_seconds")
)

// Status reports the coordinator's cluster view for /statusz.
func (s *Server) Status() any {
	// Gather replication state before taking s.mu: the RSM node applies
	// committed entries under its own lock and then takes s.mu, so the
	// reverse order here would invert the lock hierarchy.
	rsmStatus := s.rsm.Status()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := map[string]any{
		"role":        "coordinator",
		"epoch":       uint64(0),
		"shards":      0,
		"nodes":       0,
		"standbys":    len(s.standbys),
		"suspended":   len(s.suspended),
		"transition":  false,
		"connections": s.rpc.Conns(),
		"uptime_sec":  int64(metrics.ProcessUptime().Seconds()),
	}
	if s.cur != nil {
		st["epoch"] = s.cur.Epoch
		st["mode"] = s.cur.Mode.String()
		st["shards"] = len(s.cur.Shards)
		nodes := 0
		for _, shard := range s.cur.Shards {
			nodes += len(shard.Replicas)
		}
		st["nodes"] = nodes
		st["transition"] = s.cur.Transition != nil
	}
	if s.migrating != nil {
		st["migration"] = *s.migrating
	} else if s.lastRun != nil {
		st["last_migration"] = *s.lastRun
	}
	st["rsm"] = rsmStatus
	return st
}
