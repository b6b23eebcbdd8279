package controlet

import (
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/telemetry"
	"bespokv/internal/trace"
)

// Hot-path metrics are resolved once at init (see the registry contract in
// internal/metrics): counting an op is one atomic add; latency timing is
// sampled (metrics.SampleLatency) because the clock pair dominates the
// bookkeeping cost. Control-path metrics (heartbeats, failover,
// propagation give-ups) may use labeled lookups freely.
var (
	// bespokv_controlet_ops_total{op} and _op_seconds{op}, summed over
	// every controlet's per-op record at scrape time.
	ctlLayer = telemetry.NewLayer("controlet", telemetry.ClassOf)

	// Replication fan-out, by mechanism: chain forwards launched (MS+SC),
	// async records enqueued/dropped (MS+EC), write-all peer applies
	// (AA+SC), shared-log appends (AA+EC).
	ctlChainForwards = metrics.Default.Counter("bespokv_controlet_chain_forwards_total")
	ctlPropEnqueued  = metrics.Default.Counter("bespokv_controlet_prop_enqueued_total")
	ctlPropDropped   = metrics.Default.Counter("bespokv_controlet_prop_dropped_total")
	ctlPropPending   = metrics.Default.Gauge("bespokv_controlet_prop_pending")
	ctlReplicateAll  = metrics.Default.Counter("bespokv_controlet_replicate_all_total")
	ctlLogAppendLat  = metrics.Default.Histogram("bespokv_controlet_log_append_seconds")
	ctlAAECApplied   = metrics.Default.Gauge("bespokv_controlet_aaec_applied_offset")
	// Times a log applier found itself below the shared log's retention
	// floor and had to catch up from a peer's datalet.
	ctlAAECRebootstraps = metrics.Default.Counter("bespokv_controlet_aaec_rebootstraps_total")
	// Log frames the local datalet did not take and the applier sent again.
	// The applier does not move past such a frame, so a count that keeps
	// rising while aaec_applied_offset stands still is a stalled replica.
	ctlAAECApplyRetries = metrics.Default.Counter("bespokv_controlet_aaec_apply_retries_total")

	// AA+SC lease acquisition: the DLM wait is the paper's SC overhead.
	ctlLockWait = metrics.Default.Histogram("bespokv_controlet_lock_wait_seconds")
	// AA+SC slot leases, bespokv_controlet_slot_lease_total{event}: Locks an
	// operation waited for (acquire) and that tend sent to extend an owned
	// lease (renew), Unlocks (release), single-key ops sent on to their
	// slot's owner (relay) and ops served by a replica that does not own
	// their slot (fallback). (acquire + renew) ÷ ops is the DLM calls per op.
	ctlSlotAcquire  = metrics.Default.Counter("bespokv_controlet_slot_lease_total", "event", "acquire")
	ctlSlotRenew    = metrics.Default.Counter("bespokv_controlet_slot_lease_total", "event", "renew")
	ctlSlotRelease  = metrics.Default.Counter("bespokv_controlet_slot_lease_total", "event", "release")
	ctlSlotRelay    = metrics.Default.Counter("bespokv_controlet_slot_lease_total", "event", "relay")
	ctlSlotFallback = metrics.Default.Counter("bespokv_controlet_slot_lease_total", "event", "fallback")

	// Coordinator liveness reporting.
	ctlHeartbeats    = metrics.Default.Counter("bespokv_controlet_heartbeats_total")
	ctlHeartbeatErrs = metrics.Default.Counter("bespokv_controlet_heartbeat_errors_total")

	// Accept errors other than the listener closing; the loop retries them.
	ctlAcceptErrs = metrics.Default.Counter("bespokv_controlet_accept_errors_total")

	// Requests rejected because the node self-fenced (lost coordinator
	// contact past FenceTimeout).
	ctlFencedRejects = metrics.Default.Counter("bespokv_controlet_fenced_rejects_total")

	// Telemetry reports shipped to (or lost on the way to) the aggregator.
	ctlTelemetryReports = metrics.Default.Counter("bespokv_controlet_telemetry_reports_total")
	ctlTelemetryErrs    = metrics.Default.Counter("bespokv_controlet_telemetry_errors_total")
)

// observeWait records how long a write waited on a control service (DLM
// lease, shared-log append) into h and, for sampled requests, as a span.
func (s *Server) observeWait(h *metrics.Histogram, tid uint64, span string, start time.Time, err error) {
	dur := time.Since(start)
	h.Observe(dur)
	if tid != 0 {
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		trace.Record(tid, s.cfg.NodeID, span, start, dur, errStr)
	}
}

// Status reports this controlet's role, map epoch, replication lag and
// connection-pool stats for /statusz.
func (s *Server) Status() any {
	m := s.Map()
	st := map[string]any{
		"role":       "detached",
		"node":       s.cfg.NodeID,
		"shard":      s.shardID(),
		"mode":       s.cfg.Mode.String(),
		"epoch":      uint64(0),
		"clock":      s.clock.Load(),
		"draining":   s.draining.Load(),
		"transition": false,
		"uptime_sec": int64(metrics.ProcessUptime().Seconds()),
	}
	if m != nil {
		st["epoch"] = m.Epoch
		st["transition"] = m.Transition != nil
		_, pos := s.myShard(m)
		st["role"] = s.roleName(m, pos)
	}
	localConns, localLoad := s.local.Stats()
	peers, dPeers := s.peers.Stats(), s.dPeers.Stats()
	st["pools"] = map[string]any{
		"local_link":         s.localNet.Name() + ":" + s.localAddr,
		"local_conns":        localConns,
		"local_load":         localLoad,
		"peers":              peers.Links,
		"peer_conns":         peers.Conns,
		"peer_load":          peers.Load,
		"peers_down":         peers.Down,
		"peer_datalets":      dPeers.Links,
		"peer_datalet_conns": dPeers.Conns,
		"peer_datalet_load":  dPeers.Load,
		"peer_datalets_down": dPeers.Down,
	}
	st["overloadz"] = s.admit.Status()
	if s.prop != nil {
		st["prop_pending"] = s.prop.pendingN.Load()
	}
	if ms := s.mig.Load(); ms != nil {
		st["migration"] = ms.mover.Status()
	}
	if s.aaec != nil {
		st["aaec_applied_offset"] = s.aaec.applied.Load()
	}
	if s.locks != nil {
		st["slot_leases_held"] = s.locks.held()
	}
	return st
}
