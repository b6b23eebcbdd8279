// Package client is the bespokv client library (the paper's Table II API):
// it consults the coordinator for the cluster map, routes requests to the
// right controlet by consistent hashing or range partitioning, follows
// redirects, retries across failovers and transitions, supports
// per-request consistency levels on reads, and fans range queries out
// across shards.
package client

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/clock"
	"bespokv/internal/coordinator"
	"bespokv/internal/datalet"
	"bespokv/internal/metrics"
	"bespokv/internal/overload"
	"bespokv/internal/rpc"
	"bespokv/internal/telemetry"
	"bespokv/internal/topology"
	"bespokv/internal/trace"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// Config configures a client.
type Config struct {
	// Network and Codec must match the controlets'.
	Network transport.Network
	Codec   wire.Codec
	// CoordinatorAddr enables dynamic maps (watch + refresh). Exactly
	// one of CoordinatorAddr and StaticMap must be set.
	CoordinatorAddr string
	// StaticMap pins the topology for coordinator-less deployments.
	StaticMap *topology.Map
	// PoolSize is connections per controlet (default 2).
	PoolSize int
	// Retries bounds attempts per operation (default 8).
	Retries int
	// RetryBackoff is the base backoff between attempts (default 2ms,
	// doubling with jitter, capped at maxRetryBackoff).
	RetryBackoff time.Duration
	// WatchMap keeps a background long-poll for map changes (default on
	// when CoordinatorAddr is set).
	DisableWatch bool
	// OpTimeout arms a pipeline watchdog on every controlet connection: a
	// call with no response within OpTimeout fails with
	// datalet.ErrCallTimeout instead of hanging. This is how the client
	// notices a blackholed (partitioned) controlet — a dead one refuses
	// connections, but a partitioned one just goes silent. 0 disables.
	OpTimeout time.Duration
	// HotKeyThreshold enables client-side hot-key load balancing
	// (Appendix C): keys accessed at least this many times get a shadow
	// copy on a rehashed shard, and eventual reads spread across primary
	// and shadow. 0 disables it.
	HotKeyThreshold int
	// DirectReads lets SC-safe reads (MS+SC tail reads, MS+EC head reads,
	// eventual-level reads) skip the controlet hop and hit the owning
	// datalet directly, fenced by a coordinator-granted map lease on this
	// side and an epoch lease on the datalet's. Any miss (stale epoch,
	// expired lease, unreachable datalet) falls back through the controlet
	// path transparently.
	DirectReads bool
	// HedgeAfter enables hedged reads: an eventual-level read with a
	// replica choice that has not answered within max(HedgeAfter, the
	// client's running p99 read latency) is raced against a second
	// replica, first response wins. 0 disables hedging.
	HedgeAfter time.Duration
	// HedgeBudgetPct caps hedges at this percentage of reads (default 10;
	// a degenerate cluster where every read hedges would double load and
	// make the tail worse for everyone).
	HedgeBudgetPct int
	// OpBudget is an end-to-end time budget per operation, covering every
	// attempt and backoff. The remaining budget rides each attempt's wire
	// request as a deadline, so every downstream hop (controlet, chain
	// forward, datalet) can drop work the moment this client has stopped
	// waiting instead of finishing it into the void. 0 disables.
	OpBudget time.Duration
	// RetryBudgetPct caps retries at this percentage of primary requests
	// (token bucket, the same arithmetic as HedgeBudgetPct). Unbounded
	// retries amplify offered load exactly when the cluster is drowning;
	// a budget bounds the amplification factor at 1+pct/100. 0 disables
	// (unlimited retries, the pre-overload-control behavior).
	RetryBudgetPct int
	// BreakerThreshold trips a per-endpoint circuit breaker after this
	// many consecutive transport failures (dial errors, call timeouts —
	// never application statuses, which prove the endpoint is talking).
	// A tripped endpoint fast-fails locally until a cooldown (250ms,
	// jittered to [125ms, 375ms) so a fleet's probes don't stampede a
	// recovering endpoint) admits a half-open probe. Default 8; < 0
	// disables.
	BreakerThreshold int
	// Logf receives diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Client is a bespokv cluster client; safe for concurrent use.
type Client struct {
	cfg Config

	rec *telemetry.Recorder // per-op counts and latencies, via Count
	lat metrics.Sampler     // which of this client's ops Count is given a latency for

	// coord serves foreground map refreshes and watch the map long-polls,
	// which then never hold up a refresh nor share its call timeout. Both
	// live as long as the client (nil with a static map; watch also with
	// DisableWatch): each re-dials and follows the leader by itself.
	coord *coordinator.Client
	watch *coordinator.Client

	mu   sync.RWMutex
	m    *topology.Map
	ring *topology.Ring

	// links reach controlets at their data addresses, on cfg.Network in
	// cfg.Codec. They re-dial by themselves; nothing here drops one.
	links *datalet.Links

	hot *hotTracker // nil unless HotKeyThreshold > 0

	// leaseUntil is the instant (clock.Mono) through which the current map
	// may be trusted for direct datalet reads (math.MaxInt64 for static
	// maps, whose epoch never moves). Renewed by the watch loop's
	// LeaseMap long-polls.
	leaseUntil atomic.Int64
	leaseTTL   atomic.Int64 // last granted TTL (ns); paces watch long-polls

	// dlinks reach datalets directly, in each datalet's own protocol. A
	// datalet this client's network cannot reach at all (a collocated
	// in-process one) costs one dial per backoff window, not one per read.
	dlinks *datalet.Links

	hedge *hedgeState // nil unless HedgeAfter > 0

	// Overload discipline (see overload.go): the retry budget and breaker
	// set are nil when disabled (nil-safe to call); the sustained-overload
	// signal always exists.
	retryBudget *overload.RetryBudget
	breakers    *overload.BreakerSet
	overloadSig *overload.Signal

	refreshing sync.Mutex  // serializes map refreshes
	refreshBg  atomic.Bool // a refreshAsync is in flight

	stopCh  chan struct{}
	wg      sync.WaitGroup
	stopped bool
}

// New connects a client.
func New(cfg Config) (*Client, error) {
	if cfg.Network == nil || cfg.Codec == nil {
		return nil, errors.New("client: Network and Codec are required")
	}
	if (cfg.CoordinatorAddr == "") == (cfg.StaticMap == nil) {
		return nil, errors.New("client: exactly one of CoordinatorAddr and StaticMap is required")
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 2
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 8
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Millisecond
	}
	if cfg.HedgeBudgetPct <= 0 {
		cfg.HedgeBudgetPct = 10
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 8
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	c := &Client{
		cfg:    cfg,
		links:  datalet.NewLinks(cfg.Network, cfg.PoolSize, cfg.OpTimeout),
		dlinks: datalet.NewLinks(cfg.Network, cfg.PoolSize, cfg.OpTimeout),
		stopCh: make(chan struct{}),
	}
	if cfg.HotKeyThreshold > 0 {
		c.hot = newHotTracker(cfg.HotKeyThreshold)
	}
	if cfg.HedgeAfter > 0 {
		c.hedge = newHedgeState(cfg.HedgeAfter, cfg.HedgeBudgetPct)
	}
	c.retryBudget = overload.NewRetryBudget(cfg.RetryBudgetPct, overload.BudgetBurst)
	c.breakers = overload.NewBreakerSet(cfg.BreakerThreshold, 0) // 0: the breaker's 250ms default
	c.overloadSig = overload.NewSignal(overloadWindow, overloadMin)
	registerOverload(c)
	if cfg.StaticMap != nil {
		// A static map's epoch never moves; the lease is perpetual.
		c.leaseUntil.Store(math.MaxInt64)
		c.installMap(cfg.StaticMap)
		c.rec = clientLayer.NewRecorder(telemetry.Options{})
		return c, nil
	}
	coordClient, err := coordinator.DialCoordinator(cfg.Network, cfg.CoordinatorAddr)
	if err != nil {
		return nil, err
	}
	if cfg.OpTimeout > 0 {
		coordClient.SetCallTimeout(cfg.OpTimeout)
	}
	c.coord = coordClient
	m, err := coordClient.GetMap()
	if err != nil {
		coordClient.Close()
		return nil, fmt.Errorf("client: fetch map: %w", err)
	}
	c.installMap(m)
	if cfg.DirectReads {
		// Seed the map lease now; the watch loop keeps it renewed.
		if lm, ttl, err := coordClient.LeaseMap(0, time.Second); err == nil && lm != nil {
			c.installMap(lm)
			c.extendLease(ttl)
		}
	}
	if !cfg.DisableWatch {
		if c.watch, err = coordinator.DialCoordinator(cfg.Network, cfg.CoordinatorAddr); err != nil {
			coordClient.Close()
			return nil, fmt.Errorf("client: dial map watch: %w", err)
		}
		c.wg.Add(1)
		go c.watchLoop()
	}
	// The recorder joins its layer last, once New can no longer fail.
	c.rec = clientLayer.NewRecorder(telemetry.Options{})
	return c, nil
}

// Close releases all connections.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil
	}
	c.stopped = true
	c.mu.Unlock()
	close(c.stopCh)
	unregisterOverload(c)
	if c.coord != nil {
		_ = c.coord.Close() // aborts an in-flight refresh call
	}
	if c.watch != nil {
		_ = c.watch.Close() // aborts the in-flight long-poll
	}
	c.wg.Wait()
	_ = c.links.Close()
	_ = c.dlinks.Close()
	c.rec.Close()
	return nil
}

// Map returns the client's current view of the cluster.
func (c *Client) Map() *topology.Map {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m
}

func (c *Client) installMap(m *topology.Map) {
	clone := m.Clone()
	ring := topology.BuildRing(clone)
	c.mu.Lock()
	advanced := c.m != nil && clone.Epoch > c.m.Epoch
	if c.m == nil || clone.Epoch >= c.m.Epoch {
		c.m = clone
		c.ring = ring
	}
	c.mu.Unlock()
	if advanced && c.hot != nil {
		// The map moved under us (failover, transition, migration
		// cutover): shadow copies written under the old map may now be
		// stale or on the wrong shard, so stop serving reads from them
		// until this client re-establishes each one with a fresh write.
		c.hot.invalidate()
	}
}

// extendLease pushes the direct-read trust window ttl past now; zero or
// negative grants are ignored (no lease). The granted TTL is remembered so
// the watch loop can pace its long-polls faster than the lease expires.
func (c *Client) extendLease(ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	c.leaseTTL.Store(int64(ttl))
	until := clock.Mono() + int64(ttl)
	for {
		cur := c.leaseUntil.Load()
		if until <= cur || c.leaseUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// leaseLive reports whether the current map may still be trusted for
// coordinator-free direct reads.
func (c *Client) leaseLive() bool {
	return clock.Mono() < c.leaseUntil.Load()
}

// watchLoop keeps the map fresh with long-polls; transitions and failovers
// reach the client within one poll round trip.
func (c *Client) watchLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stopCh:
			return
		default:
		}
		cur := c.Map()
		since := uint64(0)
		if cur != nil {
			since = cur.Epoch
		}
		var m *topology.Map
		var err error
		if c.cfg.DirectReads {
			// Lease renewal rides the watch long-poll: every return —
			// even a timeout handing back the same map — re-arms the
			// direct-read trust window. The poll window stays under half
			// the granted TTL, or renewals on a quiet map (no epoch
			// changes waking the poll) would land after the lease had
			// already lapsed and direct reads would flap.
			poll := 2 * time.Second
			if ttl := time.Duration(c.leaseTTL.Load()); ttl > 0 && ttl/2 < poll {
				poll = ttl / 2
			}
			var ttl time.Duration
			m, ttl, err = c.watch.LeaseMap(since, poll)
			if err == nil {
				c.extendLease(ttl)
			}
		} else {
			m, err = c.watch.WatchMap(since, 2*time.Second)
		}
		if err != nil {
			// The watch client has already tried every member; pause so an
			// unreachable control plane is not polled in a tight loop.
			select {
			case <-c.stopCh:
				return
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		if m != nil {
			c.installMap(m)
		}
	}
}

// refreshMap synchronously re-fetches the map (used on routing failures).
func (c *Client) refreshMap() {
	if c.coord == nil {
		return
	}
	c.refreshing.Lock()
	defer c.refreshing.Unlock()
	if m, err := c.coord.GetMap(); err == nil {
		c.installMap(m)
	}
}

// refreshAsync refreshes the map in the background, prompted by a reply
// showing that the installed map is older than epoch (0: by how much is
// unknown). A burst of such replies — every op in flight when a client
// misses an epoch bump gets one — makes one GetMap round trip, not one
// each: none starts while another is in flight, nor once the installed map
// has reached epoch.
func (c *Client) refreshAsync(epoch uint64) {
	if c.coord == nil {
		return
	}
	if m := c.Map(); epoch != 0 && m != nil && m.Epoch >= epoch {
		return
	}
	if !c.refreshBg.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer c.refreshBg.Store(false)
		c.refreshMap()
	}()
}

// randInt draws from math/rand/v2's per-P sharded global source, so
// replica picks on the read hot path never serialize behind a mutex the
// way a shared *rand.Rand would (see BenchmarkRandIntParallel).
func (c *Client) randInt(n int) int {
	return rand.IntN(n)
}

// shardFor routes a key under the current map.
func (c *Client) shardFor(key []byte) (topology.Shard, *topology.Map, error) {
	c.mu.RLock()
	m, ring := c.m, c.ring
	c.mu.RUnlock()
	if m == nil || len(m.Shards) == 0 {
		return topology.Shard{}, nil, errors.New("client: no cluster map")
	}
	idx := m.ShardFor(key, ring)
	return m.Shards[idx], m, nil
}

// The client's routing is the map mode's topology.Route row: where writes
// go, who owns strong reads, whether those may be served by a datalet
// directly. Eventual reads — the ones with a free replica choice, and so the
// only ones hedged — go to any readable replica in every mode.

// writeTarget picks the node that accepts writes of key for the shard (key
// is nil for writes that are not a key's, such as table DDL).
func (c *Client) writeTarget(m *topology.Map, shard topology.Shard, key []byte) topology.Node {
	return shard.Pick(m.Mode.Route().Write, key, rand.IntN)
}

// readTarget picks the node to read key from, honoring the consistency
// level (key is nil for reads that are not a key's, such as scans).
func (c *Client) readTarget(m *topology.Map, shard topology.Shard, key []byte, level wire.Level) topology.Node {
	rt := m.Mode.Route()
	return shard.Pick(rt.ReadTarget(level.Strong(rt.Strong)), key, rand.IntN)
}

// maxRetryBackoff caps the doubling retry backoff.
const maxRetryBackoff = 100 * time.Millisecond

// isTimeout reports whether err is a call timeout — the signature of a
// blackholed (partitioned) peer, as opposed to a dead one.
func isTimeout(err error) bool {
	return errors.Is(err, datalet.ErrCallTimeout) || errors.Is(err, rpc.ErrCallTimeout)
}

// errOut is returned when the retry budget is exhausted.
type errOut struct {
	op   wire.Op
	last error
}

func (e errOut) Error() string {
	return fmt.Sprintf("client: %s failed after retries: %v", e.op, e.last)
}

func (e errOut) Unwrap() error { return e.last }

// timeoutRetries caps how many timed-out attempts a single operation may
// burn. Timeouts are the expensive failure class — each costs a full
// OpTimeout — and they signal a partition, which more retries rarely
// outrun; refused connections and unavailability keep the full Retries
// budget, since those are the failover-in-progress signatures that
// retrying is for.
const timeoutRetries = 3

// execute retries an operation across redirects, stale epochs, transitions
// and failovers. route picks the target from the current map; it is
// re-evaluated after every refresh.
func (c *Client) execute(req *wire.Request, resp *wire.Response, route func() (string, uint64, error)) error {
	return c.executeShedding(req, resp, route, nil)
}

// executeShedding is execute for a multi-op frame whose reply can shed
// some pairs (StatusOverloaded per pair) and apply the rest. After every
// reply with per-pair statuses (StatusOK or StatusNotFound), settle takes
// the answered pairs, narrows req to the shed ones and reports whether any
// were shed; those are retried as a shed single op is: with backoff, under
// the retry budget and the op budget.
func (c *Client) executeShedding(req *wire.Request, resp *wire.Response, route func() (string, uint64, error),
	settle func(*wire.Response) (shed bool)) (err error) {
	// Head-based sampling starts here: a sampled request carries its trace
	// ID through every hop it touches (controlets, replicas, datalets, the
	// shared log), and the client span brackets the whole operation
	// including retries.
	if req.TraceID == 0 {
		req.TraceID = trace.Sample()
	}
	start := c.lat.Start(req.TraceID != 0)
	defer func() {
		// Every completed op — success or not — credits the retry budget,
		// so sustained retries converge to RetryBudgetPct% of op rate.
		c.retryBudget.Observe()
		if err != nil {
			clientErrors.Inc()
		}
		dur := metrics.Since(start)
		c.rec.Count(req.Op, dur)
		if req.TraceID != 0 {
			errStr := ""
			if err != nil {
				errStr = err.Error()
			}
			trace.Record(req.TraceID, "client", "client."+req.Op.String(), start, dur, errStr)
		}
	}()
	var lastErr error
	backoff := c.cfg.RetryBackoff
	redirect := ""
	timeouts := 0
	var opDeadline time.Time
	if c.cfg.OpBudget > 0 {
		opDeadline = time.Now().Add(c.cfg.OpBudget)
	}
retry:
	for attempt := 0; attempt < c.cfg.Retries; attempt++ {
		addr, epoch, err := route()
		if err != nil {
			return err
		}
		if redirect != "" {
			addr = redirect
			redirect = ""
		}
		req.Epoch = epoch
		if c.cfg.OpBudget > 0 {
			rem := time.Until(opDeadline)
			if rem <= 0 {
				clientBudgetExpired.Inc()
				lastErr = budgetErr(c.cfg.OpBudget, lastErr)
				break
			}
			// Stamp the remaining budget on the wire so every downstream
			// hop can drop this attempt the moment it becomes doomed.
			req.Deadline = uint64(rem)
		}
		err = c.doGuarded(addr, req, resp)
		kind := classifyFailure(resp.Status, err)
		if err == nil {
			switch resp.Status {
			case wire.StatusOK, wire.StatusNotFound, wire.StatusErr:
				if resp.Epoch > epoch {
					// The server hinted our map is stale; refresh in
					// the background for next time.
					c.refreshAsync(resp.Epoch)
				}
				if resp.Status == wire.StatusErr || settle == nil || !settle(resp) {
					return nil
				}
				kind = failOverloaded // some pairs were shed
			case wire.StatusRedirect:
				clientRedirects.Inc()
				redirect = resp.Err
				lastErr = fmt.Errorf("redirected to %s", resp.Err)
				continue // immediate: no backoff, no retry-budget spend
			}
		}
		switch kind {
		case failOverloaded:
			// The server is alive and explicitly shedding; back off and
			// let the retry budget decide whether trying again is even
			// allowed. No map refresh trigger — routing is not the issue.
			clientOverloaded.Inc()
			c.noteOverloaded()
			lastErr = errors.New(resp.Err)
			if resp.Status != wire.StatusOverloaded { // pairs were shed
				lastErr = statusErr(wire.StatusOverloaded)
			}
		case failUnavailable:
			if resp.Status == wire.StatusWrongEpoch {
				lastErr = errors.New("stale epoch")
			} else {
				lastErr = errors.New(resp.Err)
			}
		case failTransport:
			lastErr = err
			if isTimeout(err) {
				// A timeout burned a full OpTimeout and points at a
				// partition; cap how many one op may spend waiting out
				// a blackhole. Refusals keep the full budget — they are
				// cheap and usually mean a failover is replacing the
				// node we just tried.
				if timeouts++; timeouts >= timeoutRetries {
					lastErr = fmt.Errorf("gave up after %d call timeouts (target partitioned?): %w", timeouts, err)
					break retry
				}
			} else if errors.Is(err, transport.ErrRefused) {
				clientRefused.Inc()
			}
		default:
			lastErr = fmt.Errorf("unexpected status %s", resp.Status)
		}
		if attempt == c.cfg.Retries-1 {
			break // out of budget: fail now, don't pay refresh+backoff
		}
		if !c.retryBudget.Allow() {
			// Retrying now would amplify load past the configured bound;
			// fail the op instead of feeding the spiral.
			clientRetryDenied.Inc()
			lastErr = fmt.Errorf("retry budget exhausted: %w", lastErr)
			break
		}
		clientRetries.Inc()
		c.refreshMap()
		// Jittered sleep in [backoff/2, backoff): a fleet of clients all
		// kicked by the same epoch bump (cutover, failover) would
		// otherwise retry in lockstep against the coordinator and the new
		// owner. The doubling still bounds how hot a flapping epoch can
		// spin any single client.
		sleep := backoff/2 + time.Duration(c.randInt(int(backoff/2)+1))
		if c.cfg.OpBudget > 0 && time.Until(opDeadline) <= sleep {
			// The backoff would outlive the op budget; fail now rather
			// than sleep past the client's own deadline.
			clientBudgetExpired.Inc()
			lastErr = budgetErr(c.cfg.OpBudget, lastErr)
			break
		}
		select {
		case <-c.stopCh:
			return errOut{op: req.Op, last: lastErr}
		case <-time.After(sleep):
		}
		if backoff < maxRetryBackoff {
			backoff *= 2
		}
	}
	return errOut{op: req.Op, last: lastErr}
}

// routeWrite returns a route function targeting key's write node.
func (c *Client) routeWrite(key []byte) func() (string, uint64, error) {
	return func() (string, uint64, error) {
		shard, m, err := c.shardFor(key)
		if err != nil {
			return "", 0, err
		}
		return c.writeTarget(m, shard, key).ControletAddr, m.Epoch, nil
	}
}

// Put writes key=value in table (""= default table).
func (c *Client) Put(table string, key, value []byte) error {
	req := wire.Request{Op: wire.OpPut, Table: table, Key: key, Value: value}
	var resp wire.Response
	err := c.execute(&req, &resp, c.routeWrite(key))
	if err != nil {
		return err
	}
	if c.hot != nil && c.hot.touch(key) {
		c.hotPut(table, key, value)
	}
	return resp.ErrValue()
}

// Get reads key from table at the mode's default consistency.
func (c *Client) Get(table string, key []byte) ([]byte, bool, error) {
	return c.GetLevel(table, key, wire.LevelDefault)
}

// GetLevel reads with an explicit per-request consistency level (§IV-C).
func (c *Client) GetLevel(table string, key []byte, level wire.Level) ([]byte, bool, error) {
	// Hot keys spread eventual reads over the shadow shard too. Strong
	// reads always use the primary (shadow copies are asynchronous), and
	// only shadows this client has re-written since the last map change
	// are trusted (see hotTracker.invalidate).
	if c.hot != nil && level != wire.LevelStrong {
		if m := c.Map(); m != nil && !level.Strong(m.Mode.Route().Strong) && c.hot.touch(key) && c.hot.isFresh(key) && c.randInt(2) == 0 {
			if v, ok := c.hotGet(table, key); ok {
				return v, true, nil
			}
		}
	}
	// Wire-speed path: an SC-safe read under a live map lease goes
	// straight to the owning datalet, zero controlet/coordinator hops.
	if v, found, ok := c.directGet(table, key, level); ok {
		return v, found, nil
	}
	req := wire.Request{Op: wire.OpGet, Table: table, Key: key, Level: level}
	var resp wire.Response
	if v, found, ok := c.hedgedControletGet(&req, level); ok {
		return v, found, nil
	}
	err := c.execute(&req, &resp, func() (string, uint64, error) {
		shard, m, err := c.shardFor(key)
		if err != nil {
			return "", 0, err
		}
		return c.readTarget(m, shard, key, level).ControletAddr, m.Epoch, nil
	})
	if err != nil {
		return nil, false, err
	}
	if resp.Status == wire.StatusNotFound {
		return nil, false, nil
	}
	if err := resp.ErrValue(); err != nil {
		return nil, false, err
	}
	return resp.Value, true, nil // decoded into this call's own resp
}

// Del deletes key from table; found reports whether it existed.
func (c *Client) Del(table string, key []byte) (bool, error) {
	req := wire.Request{Op: wire.OpDel, Table: table, Key: key}
	var resp wire.Response
	err := c.execute(&req, &resp, c.routeWrite(key))
	if err != nil {
		return false, err
	}
	if c.hot != nil && c.hot.hot(key) {
		c.hotDel(table, key)
	}
	if resp.Status == wire.StatusNotFound {
		return false, nil
	}
	return true, resp.ErrValue()
}

// GetRange returns live pairs with start <= key < end across all owning
// shards, merged in key order, up to limit (§IV-B).
func (c *Client) GetRange(table string, start, end []byte, limit int) ([]wire.KV, error) {
	c.mu.RLock()
	m := c.m
	c.mu.RUnlock()
	if m == nil {
		return nil, errors.New("client: no cluster map")
	}
	var merged []wire.KV
	for _, si := range m.ShardsForRange(start, end) {
		shard := m.Shards[si]
		req := wire.Request{
			Op:     wire.OpScan,
			Table:  table,
			Key:    start,
			EndKey: end,
			Limit:  uint32(limit),
		}
		var resp wire.Response
		err := c.execute(&req, &resp, func() (string, uint64, error) {
			return c.readTarget(m, shard, nil, wire.LevelDefault).ControletAddr, m.Epoch, nil
		})
		if err != nil {
			return nil, err
		}
		if err := resp.ErrValue(); err != nil {
			return nil, err
		}
		for _, kv := range resp.Pairs {
			if isShadowKey(kv.Key) {
				continue // hot-key shadow copies are invisible to scans
			}
			merged = append(merged, wire.KV{
				Key:     append([]byte(nil), kv.Key...),
				Value:   append([]byte(nil), kv.Value...),
				Version: kv.Version,
			})
		}
	}
	sort.Slice(merged, func(i, j int) bool { return bytes.Compare(merged[i].Key, merged[j].Key) < 0 })
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	return merged, nil
}

// CreateTable creates table on every shard.
func (c *Client) CreateTable(table string) error {
	return c.tableOp(wire.OpCreateTable, table)
}

// DeleteTable drops table on every shard.
func (c *Client) DeleteTable(table string) error {
	return c.tableOp(wire.OpDeleteTable, table)
}

func (c *Client) tableOp(op wire.Op, table string) error {
	c.mu.RLock()
	m := c.m
	c.mu.RUnlock()
	if m == nil {
		return errors.New("client: no cluster map")
	}
	for _, shard := range m.Shards {
		shard := shard
		req := wire.Request{Op: op, Table: table}
		var resp wire.Response
		err := c.execute(&req, &resp, func() (string, uint64, error) {
			return c.writeTarget(m, shard, nil).ControletAddr, m.Epoch, nil
		})
		if err != nil {
			return err
		}
		if resp.Status == wire.StatusErr {
			return resp.ErrValue()
		}
	}
	return nil
}
