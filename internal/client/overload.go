package client

import (
	"errors"
	"fmt"
	"time"

	"bespokv/internal/wire"
)

// Client-side overload discipline (see internal/overload for the shared
// primitives). Three rules keep a client from feeding congestion collapse:
//
//  1. Retries are budgeted: sustained retry traffic is capped at
//     RetryBudgetPct% of primary traffic, so a drowning cluster sees a
//     bounded amplification factor instead of an open feedback loop.
//  2. Endpoints that stop *talking* (transport failures, not error
//     statuses) get a circuit breaker: after BreakerThreshold consecutive
//     failures the client fast-fails locally and probes the endpoint with
//     jittered half-open singles instead of hammering it.
//  3. Every attempt carries the op's remaining time budget on the wire,
//     so downstream hops can drop work this client has stopped waiting
//     for — the overload analogue of the trace header.

// failureKind is the three-way split of a failed attempt. Each kind gets
// different medicine, and conflating them is how retry storms start:
// treating Overloaded like Unavailable adds a map refresh to every shed,
// and treating it like a transport failure trips breakers on endpoints
// that are alive and explicitly asking for backoff.
type failureKind int

const (
	// failOther: an unrecognized status; retried generically.
	failOther failureKind = iota
	// failOverloaded: the server shed the request (admission control or an
	// expired deadline) and is alive. Retryable, but only with backoff and
	// only inside the retry budget; never breaker food, never a map
	// refresh trigger by itself.
	failOverloaded
	// failUnavailable: fencing, lease loss, or a stale epoch — the
	// failover-in-progress signatures. The cure is a map refresh and a
	// retry against whatever the new map says.
	failUnavailable
	// failTransport: the endpoint did not answer at all (dial error, call
	// timeout, breaker fast-fail). Counts toward the endpoint's breaker
	// and, for timeouts, toward the timeoutRetries cap.
	failTransport
)

// classifyFailure buckets one failed attempt. A transport error outranks
// any status — resp may hold a stale status from a previous attempt when
// the exchange itself failed.
func classifyFailure(status wire.Status, err error) failureKind {
	if err != nil {
		return failTransport
	}
	switch status {
	case wire.StatusOverloaded:
		return failOverloaded
	case wire.StatusUnavailable, wire.StatusWrongEpoch:
		return failUnavailable
	default:
		return failOther
	}
}

// errBreakerOpen is the fast-fail for a tripped endpoint breaker.
var errBreakerOpen = errors.New("client: circuit open")

// The sustained-overload signal: overloadMin Overloaded pushbacks inside
// overloadWindow flips the client into degraded mode (hedging suppressed).
// One stray shed does not; a steady stream does.
const (
	overloadWindow = time.Second
	overloadMin    = 8
)

// doGuarded runs one request against addr's link behind the endpoint's
// circuit breaker. Only transport failures feed the breaker — any decoded
// response, even an error status, proves the endpoint is alive and closes
// it. The two overlap on purpose: a link that is down covers an endpoint
// with no connection (and its ErrLinkDown counts here as the transport
// failure it is); the breaker covers one that accepts connections and never
// answers.
func (c *Client) doGuarded(addr string, req *wire.Request, resp *wire.Response) error {
	br := c.breakers.For(addr)
	if !br.AllowNow() {
		clientBreakerDenied.Inc()
		return fmt.Errorf("%w: %s", errBreakerOpen, addr)
	}
	err := c.links.To(addr, c.cfg.Codec).Do(req, resp)
	if err != nil {
		br.Failure(time.Now())
	} else {
		br.Success()
	}
	return err
}

// noteOverloaded records one server pushback toward the sustained signal.
func (c *Client) noteOverloaded() {
	c.overloadSig.Note(time.Now())
}

// degraded reports sustained overload pushback. While it holds, hedging
// is suppressed: a hedge is extra load exactly when the cluster can least
// afford it, and under overload the tail is queueing delay that a second
// replica is suffering too.
func (c *Client) degraded() bool {
	return c.overloadSig.Active(time.Now())
}

// budgetErr wraps the last attempt's error in an op-budget failure.
func budgetErr(budget time.Duration, last error) error {
	if last == nil {
		return fmt.Errorf("op budget %v exhausted", budget)
	}
	return fmt.Errorf("op budget %v exhausted: %w", budget, last)
}
