package client

import (
	"sync"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/wire"
)

var (
	// bespokv_client_ops_total{op} and _op_seconds{op}.
	clientOps = wire.NewOpMetrics("client")

	clientRetries   = metrics.Default.Counter("bespokv_client_retries_total")
	clientRedirects = metrics.Default.Counter("bespokv_client_redirects_total")
	clientErrors    = metrics.Default.Counter("bespokv_client_errors_total")
	clientRefused   = metrics.Default.Counter("bespokv_client_refused_total")

	// Wire-speed read path: reads served straight from a datalet under a
	// live map lease, and reads that had to fall back to the controlet
	// path (unreachable datalet, stale epoch, expired lease).
	clientDirectReads     = metrics.Default.Counter("bespokv_client_direct_reads_total")
	clientDirectFallbacks = metrics.Default.Counter("bespokv_client_direct_fallbacks_total")

	// Hedging: second legs fired, and races the hedge leg won.
	clientHedgedReads = metrics.Default.Counter("bespokv_client_hedged_reads_total")
	clientHedgeWins   = metrics.Default.Counter("bespokv_client_hedge_wins_total")

	// Overload discipline: Overloaded pushback received, breaker
	// fast-fails, retries denied by the budget, ops that ran out their
	// end-to-end time budget, and hedges suppressed while degraded.
	clientOverloaded      = metrics.Default.Counter("bespokv_client_overloaded_total")
	clientBreakerDenied   = metrics.Default.Counter("bespokv_client_breaker_denied_total")
	clientRetryDenied     = metrics.Default.Counter("bespokv_client_retry_budget_denied_total")
	clientBudgetExpired   = metrics.Default.Counter("bespokv_client_op_budget_expired_total")
	clientHedgeSuppressed = metrics.Default.Counter("bespokv_client_hedge_suppressed_total")
)

// Live hedge-state registry backing the hedging gauges: the p99 estimate
// and token budget live in each client's hedgeState, so the gauges walk
// the set at scrape time instead of charging reads for scrape-only
// numbers (same tactic as the datalet's pipelined-client gauges).
var (
	hedgeMu  sync.Mutex
	hedgeSet = map[*hedgeState]struct{}{}
)

func registerHedge(h *hedgeState) {
	hedgeMu.Lock()
	hedgeSet[h] = struct{}{}
	hedgeMu.Unlock()
}

func unregisterHedge(h *hedgeState) {
	hedgeMu.Lock()
	delete(hedgeSet, h)
	hedgeMu.Unlock()
}

func init() {
	// The hedge delay IS the observed read p99 (floored at HedgeAfter);
	// across clients the max is the honest merge — hedging is tail-driven.
	metrics.Default.GaugeFunc("bespokv_client_hedge_p99_seconds", func() float64 {
		hedgeMu.Lock()
		defer hedgeMu.Unlock()
		var worst int64
		for h := range hedgeSet {
			if v := h.p99.Load(); v > worst {
				worst = v
			}
		}
		return time.Duration(worst).Seconds()
	})
	// Banked hedges immediately affordable across live clients (tokens
	// are hedgeTokenScale per hedge).
	metrics.Default.GaugeFunc("bespokv_client_hedge_tokens", func() float64 {
		hedgeMu.Lock()
		defer hedgeMu.Unlock()
		var t int64
		for h := range hedgeSet {
			t += h.tokens.Load()
		}
		return float64(t) / hedgeTokenScale
	})
	// Fraction of the total token budget still unspent (1 = idle, 0 =
	// every client exhausted — reads are uniformly slow, not one straggler).
	metrics.Default.GaugeFunc("bespokv_client_hedge_budget_frac", func() float64 {
		hedgeMu.Lock()
		defer hedgeMu.Unlock()
		if len(hedgeSet) == 0 {
			return 1
		}
		var t int64
		for h := range hedgeSet {
			t += h.tokens.Load()
		}
		return float64(t) / float64(int64(len(hedgeSet))*hedgeTokenCap)
	})
}

// Live-client registry backing the overload gauges (breaker positions and
// banked retry tokens live per client; gauges merge at scrape time — the
// same tactic as the hedge-state registry above).
var (
	ovMu      sync.Mutex
	ovClients = map[*Client]struct{}{}
)

func registerOverload(c *Client) {
	ovMu.Lock()
	ovClients[c] = struct{}{}
	ovMu.Unlock()
}

func unregisterOverload(c *Client) {
	ovMu.Lock()
	delete(ovClients, c)
	ovMu.Unlock()
}

func init() {
	// Breaker positions across every live client's endpoint set. A
	// nonzero open count is the "stop hammering it" tell; half-open shows
	// probes in flight against recovering endpoints.
	breakerGauge := func(pick func(closed, open, half int) int) func() float64 {
		return func() float64 {
			ovMu.Lock()
			defer ovMu.Unlock()
			var n int
			for c := range ovClients {
				n += pick(c.breakers.States())
			}
			return float64(n)
		}
	}
	metrics.Default.GaugeFunc("bespokv_client_breaker_closed", breakerGauge(func(closed, _, _ int) int { return closed }))
	metrics.Default.GaugeFunc("bespokv_client_breaker_open", breakerGauge(func(_, open, _ int) int { return open }))
	metrics.Default.GaugeFunc("bespokv_client_breaker_half_open", breakerGauge(func(_, _, half int) int { return half }))
	// Banked retries still affordable across live clients (0 with budgets
	// disabled, or every client pinned at empty — retrying at the cap).
	metrics.Default.GaugeFunc("bespokv_client_retry_budget_tokens", func() float64 {
		ovMu.Lock()
		defer ovMu.Unlock()
		var t float64
		for c := range ovClients {
			t += c.retryBudget.Tokens()
		}
		return t
	})
}
