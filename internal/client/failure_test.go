package client

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// TestClassifyFailure pins the three-way failure split the overload design
// depends on: Overloaded (alive, shedding — back off inside the retry
// budget), Unavailable/WrongEpoch (failover in progress — refresh and
// re-route), and transport failures (endpoint silent — breaker food).
func TestClassifyFailure(t *testing.T) {
	cases := []struct {
		name   string
		status wire.Status
		err    error
		want   failureKind
	}{
		{"overloaded", wire.StatusOverloaded, nil, failOverloaded},
		{"unavailable", wire.StatusUnavailable, nil, failUnavailable},
		{"wrong-epoch", wire.StatusWrongEpoch, nil, failUnavailable},
		{"refused", wire.StatusOK, errors.New("dial inproc: connection refused"), failTransport},
		// A transport error outranks any status: resp may hold a stale
		// status from a previous attempt when the exchange itself failed.
		{"timeout-over-stale-status", wire.StatusOverloaded, datalet.ErrCallTimeout, failTransport},
		{"breaker-fast-fail", wire.StatusOK, errBreakerOpen, failTransport},
		// StatusErr is terminal (handled before classification in execute);
		// classify treats it as the generic bucket.
		{"server-err", wire.StatusErr, nil, failOther},
	}
	for _, tc := range cases {
		if got := classifyFailure(tc.status, tc.err); got != tc.want {
			t.Errorf("%s: classifyFailure(%v, %v) = %v, want %v", tc.name, tc.status, tc.err, got, tc.want)
		}
	}
}

// TestOverloadedRetriedWithBackoff: Overloaded is retryable — but with
// backoff, never hot, and it must not trip the endpoint's breaker (the
// server answered; it is alive).
func TestOverloadedRetriedWithBackoff(t *testing.T) {
	var calls atomic.Int64
	addr := fakeServer(t, func(req *wire.Request, resp *wire.Response) {
		calls.Add(1)
		resp.Status = wire.StatusOverloaded
		resp.Err = "controlet: overloaded"
	})
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	c, err := New(Config{
		Network: net, Codec: codec, StaticMap: staticMapTo(addr),
		Retries: 3, RetryBackoff: 4 * time.Millisecond, BreakerThreshold: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Put("", []byte("k"), []byte("v"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("put against an always-overloaded server must eventually fail")
	}
	if !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("error does not surface the shed: %v", err)
	}
	// All 3 attempts must reach the server: every exchange completed, so
	// the breaker (threshold 2) must never have opened.
	if got := calls.Load(); got != 3 {
		t.Fatalf("server called %d times, want 3 (breaker must not trip on Overloaded)", got)
	}
	// Two inter-attempt sleeps with base 4ms draw at least 2+4 = 6ms of
	// jitter floor; a hot-retry regression finishes in microseconds.
	if elapsed < 6*time.Millisecond {
		t.Fatalf("3 attempts finished in %v: Overloaded is being retried hot", elapsed)
	}
}

// TestRetryBudgetBoundsAmplification drains the retry token bucket with an
// always-shedding server and pins the exact attempt arithmetic: 10 banked
// retries at pct=10, so op 1 spends 7 and op 2 is cut off after 3.
func TestRetryBudgetBoundsAmplification(t *testing.T) {
	var calls atomic.Int64
	addr := fakeServer(t, func(req *wire.Request, resp *wire.Response) {
		calls.Add(1)
		resp.Status = wire.StatusOverloaded
		resp.Err = "controlet: overloaded"
	})
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	c, err := New(Config{
		Network: net, Codec: codec, StaticMap: staticMapTo(addr),
		Retries: 8, RetryBackoff: time.Millisecond, RetryBudgetPct: 10, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Op 1: 8 attempts = 7 retries, spending 700 of the 1000 banked
	// tokens; completion credits 10 back (310 left).
	if err := c.Put("", []byte("k"), []byte("v")); err == nil {
		t.Fatal("op 1 must fail")
	}
	if got := calls.Load(); got != 8 {
		t.Fatalf("op 1 made %d calls, want 8", got)
	}
	// Op 2: 310 tokens afford 3 retries; the 4th is denied, so 4 calls.
	err = c.Put("", []byte("k"), []byte("v"))
	if err == nil {
		t.Fatal("op 2 must fail")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("op 2 error does not name the budget: %v", err)
	}
	if got := calls.Load(); got != 12 {
		t.Fatalf("total calls = %d, want 12 (retry budget must cut op 2 at 4 attempts)", got)
	}
}

// TestBreakerFastFails: consecutive transport failures trip the endpoint's
// breaker, and subsequent attempts fail locally without touching the wire.
func TestBreakerFastFails(t *testing.T) {
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	// No server listens at this address: every dial is refused.
	c, err := New(Config{
		Network: net, Codec: codec, StaticMap: staticMapTo("nobody-home"),
		Retries: 6, RetryBackoff: time.Millisecond,
		BreakerThreshold: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Put("", []byte("k"), []byte("v"))
	if err == nil {
		t.Fatal("put against a dead endpoint must fail")
	}
	// Attempts 1-2 are refused dials (tripping the breaker at threshold
	// 2); the backoffs total about 31ms, far under the cooldown's 125ms
	// jittered floor, so the final attempts are breaker fast-fails and
	// the last error names it.
	if !errors.Is(err, errBreakerOpen) {
		t.Fatalf("final error is not the breaker fast-fail: %v", err)
	}
}

// TestOpBudgetBoundsOpTime: an op whose retries would outlive OpBudget is
// failed at the budget's edge instead of sleeping past it.
func TestOpBudgetBoundsOpTime(t *testing.T) {
	addr := fakeServer(t, func(req *wire.Request, resp *wire.Response) {
		resp.Status = wire.StatusOverloaded
		resp.Err = "controlet: overloaded"
	})
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	c, err := New(Config{
		Network: net, Codec: codec, StaticMap: staticMapTo(addr),
		Retries: 100, RetryBackoff: 30 * time.Millisecond, OpBudget: 50 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Put("", []byte("k"), []byte("v"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("put must fail once the op budget lapses")
	}
	if !strings.Contains(err.Error(), "op budget") {
		t.Fatalf("error does not name the op budget: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("op with a 50ms budget ran %v", elapsed)
	}
}

// TestOpBudgetStampedOnWire: with OpBudget set, every attempt carries the
// remaining budget as its wire deadline; without it, no deadline rides.
func TestOpBudgetStampedOnWire(t *testing.T) {
	var sawDeadline atomic.Uint64
	addr := fakeServer(t, func(req *wire.Request, resp *wire.Response) {
		sawDeadline.Store(req.Deadline)
		resp.Status = wire.StatusOK
	})
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	budget := 100 * time.Millisecond
	c, err := New(Config{Network: net, Codec: codec, StaticMap: staticMapTo(addr), OpBudget: budget, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if d := sawDeadline.Load(); d == 0 || d > uint64(budget) {
		t.Fatalf("wire deadline = %d, want (0, %d]", d, uint64(budget))
	}
	c2 := newStaticClient(t, staticMapTo(addr))
	if err := c2.Put("", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if d := sawDeadline.Load(); d != 0 {
		t.Fatalf("wire deadline = %d without an op budget, want 0", d)
	}
}

// TestSustainedOverloadDegrades: degraded mode needs overloadMin pushbacks
// inside the window — one shy stays healthy, and the signal decays.
func TestSustainedOverloadDegrades(t *testing.T) {
	addr := fakeServer(t, func(req *wire.Request, resp *wire.Response) {
		resp.Status = wire.StatusOK
	})
	c := newStaticClient(t, staticMapTo(addr))
	for i := 0; i < overloadMin-1; i++ {
		c.noteOverloaded()
	}
	if c.degraded() {
		t.Fatalf("degraded after %d pushbacks, threshold is %d", overloadMin-1, overloadMin)
	}
	c.noteOverloaded()
	if !c.degraded() {
		t.Fatalf("not degraded after %d pushbacks inside the window", overloadMin)
	}
}
