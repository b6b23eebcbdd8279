package client

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/overload"
)

// promValue extracts one sample's value from a WriteProm dump.
func promValue(t *testing.T, out, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[len(name)+1:]), 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not in output", name)
	return 0
}

func TestHedgeGauges(t *testing.T) {
	h := newHedgeState(2*time.Millisecond, 10)
	c := &Client{hedge: h}
	registerOverload(c)
	defer unregisterOverload(c)

	// Feed a window with a clear tail so the p99 estimate climbs above the
	// floor: 63 fast reads and one 40ms straggler, then past the recompute
	// stride (every 32 observes).
	for i := 0; i < 63; i++ {
		h.observe(500 * time.Microsecond)
	}
	h.observe(40 * time.Millisecond)
	for i := 0; i < 32; i++ {
		h.observe(500 * time.Microsecond)
	}

	var sb strings.Builder
	if err := metrics.Default.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	p99 := promValue(t, out, "bespokv_client_hedge_p99_seconds")
	if p99 < 0.002 {
		t.Fatalf("hedge p99 gauge %.6fs below the 2ms floor", p99)
	}
	// 96 observes at 10%% credit cap the bank quickly; at least the
	// startup token must be visible, never more than the burst cap.
	tokens := promValue(t, out, "bespokv_client_hedge_tokens")
	if tokens < 1 || tokens > overload.BudgetBurst {
		t.Fatalf("hedge token gauge %.2f outside [1, %d]", tokens, overload.BudgetBurst)
	}
	frac := promValue(t, out, "bespokv_client_hedge_budget_frac")
	if frac <= 0 || frac > 1 {
		t.Fatalf("budget fraction %.2f outside (0, 1]", frac)
	}

	// Spending the bank dry shows up as a drained budget.
	for h.budget.Allow() {
	}
	sb.Reset()
	if err := metrics.Default.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	drained := promValue(t, sb.String(), "bespokv_client_hedge_tokens")
	if drained >= tokens {
		t.Fatalf("token gauge did not fall after spending: %.2f -> %.2f", tokens, drained)
	}

	// Unregistering (Client.Close) removes the state from the scrape set.
	unregisterOverload(c)
	ovMu.Lock()
	_, still := ovClients[c]
	ovMu.Unlock()
	if still {
		t.Fatal("hedge state still in scrape set after unregister")
	}
}
