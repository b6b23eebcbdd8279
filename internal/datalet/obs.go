package datalet

import (
	"sync"

	"bespokv/internal/metrics"
	"bespokv/internal/telemetry"
	"bespokv/internal/wire"
)

var (
	// bespokv_datalet_ops_total{op} and _op_seconds{op}, summed over every
	// datalet's per-op record at scrape time. A direct read is a client op;
	// every other op is work done for another node, ClassOther.
	dltLayer = telemetry.NewLayer("datalet", func(op wire.Op) telemetry.Class {
		if op == wire.OpDirectGet {
			return telemetry.ClassDirectGet
		}
		return telemetry.ClassOther
	})

	// Pipelined-client metrics (see client.go): how requests reach the
	// wire. Average coalesced batch size = batched_requests / batches.
	cliBatches    = metrics.Default.Counter("bespokv_datalet_client_batches_total")
	cliBatchedReq = metrics.Default.Counter("bespokv_datalet_client_batched_requests_total")
	cliInline     = metrics.Default.Counter("bespokv_datalet_client_inline_total")

	// Links (see link.go): generations dialled in place of a dead one, and
	// dials that failed. Touched on the re-dial path only.
	linkRedials      = metrics.Default.Counter("bespokv_datalet_link_redials_total")
	linkDialFailures = metrics.Default.Counter("bespokv_datalet_link_dial_failures_total")

	// Accept errors other than the listener closing; the loop retries them.
	srvAcceptErrs = metrics.Default.Counter("bespokv_datalet_accept_errors_total")
)

// Live-connection registry backing the pipeline gauges. Conn count,
// in-flight requests and queue depth are computed at scrape time by
// walking this set — per-request gauge atomics would charge every op for
// numbers only a scrape reads.
var (
	cliMu  sync.Mutex
	cliSet = map[*Client]struct{}{}
)

func registerClient(c *Client) {
	cliMu.Lock()
	cliSet[c] = struct{}{}
	cliMu.Unlock()
}

// unregisterClient must not be called with c.mu held: the queue-depth
// GaugeFunc takes cliMu then each client's mu, so the reverse order would
// deadlock against a concurrent scrape.
func unregisterClient(c *Client) {
	cliMu.Lock()
	delete(cliSet, c)
	cliMu.Unlock()
}

func init() {
	metrics.Default.GaugeFunc("bespokv_datalet_client_conns", func() float64 {
		cliMu.Lock()
		defer cliMu.Unlock()
		return float64(len(cliSet))
	})
	metrics.Default.GaugeFunc("bespokv_datalet_client_inflight", func() float64 {
		cliMu.Lock()
		defer cliMu.Unlock()
		var n int
		for c := range cliSet {
			n += c.Load()
		}
		return float64(n)
	})
	metrics.Default.GaugeFunc("bespokv_datalet_client_queue_depth", func() float64 {
		cliMu.Lock()
		defer cliMu.Unlock()
		var n int
		for c := range cliSet {
			c.mu.Lock()
			n += len(c.sendQ)
			c.mu.Unlock()
		}
		return float64(n)
	})
}

// Status reports the datalet's identity and per-table sizes for /statusz.
func (s *Server) Status() any {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tables := make(map[string]int, len(s.tables))
	for name, e := range s.tables {
		tables[name] = e.Len()
	}
	var engineName string
	if e, ok := s.tables[""]; ok {
		engineName = e.Name()
	}
	return map[string]any{
		"role":        "datalet",
		"name":        s.cfg.Name,
		"engine":      engineName,
		"codec":       s.cfg.Codec.Name(),
		"tables":      tables,
		"connections": s.srv.Conns(),
		"uptime_sec":  int64(metrics.ProcessUptime().Seconds()),
		"overloadz":   s.admit.Status(),
	}
}
