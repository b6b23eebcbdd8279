package client

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/overload"
	"bespokv/internal/wire"
)

// Hedged reads ("The Tail at Scale" tactic): a read with a replica choice
// that has not answered within the client's running p99 read latency is
// raced against a second replica and the first usable response wins. One
// slow replica — GC pause, overloaded disk, congested link — then costs a
// p99 round trip instead of a timeout. Hedges are capped by a token budget
// so a generally-slow cluster cannot trick every read into doubling load.
//
// The pipelined datalet protocol has no cancel frame, so "cancellation" of
// the losing leg means abandoning it: a goroutine drains the late response
// and recycles its buffers, and the connection stays usable.

// hedgeWindow is the latency sample reservoir for the p99 estimate.
const hedgeWindow = 64

// hedgeState tracks the hedge delay estimate and spend budget. Each
// completed read credits HedgeBudgetPct tokens, so hedges sustain at
// HedgeBudgetPct% of the read rate; one hedge is banked at startup.
type hedgeState struct {
	floor  time.Duration
	budget *overload.RetryBudget
	p99    atomic.Int64 // nanoseconds

	mu     sync.Mutex
	window [hedgeWindow]time.Duration
	filled int
	idx    int
}

func newHedgeState(floor time.Duration, pct int) *hedgeState {
	h := &hedgeState{floor: floor, budget: overload.NewRetryBudget(pct, 1)}
	h.p99.Store(int64(floor))
	return h
}

// observe records a completed read's latency and credits the budget.
func (h *hedgeState) observe(d time.Duration) {
	h.budget.Observe()
	h.mu.Lock()
	h.window[h.idx%hedgeWindow] = d
	h.idx++
	if h.filled < hedgeWindow {
		h.filled++
	}
	recompute := h.idx%32 == 0
	var snap []time.Duration
	if recompute {
		snap = append(make([]time.Duration, 0, h.filled), h.window[:h.filled]...)
	}
	h.mu.Unlock()
	if !recompute {
		return
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	p := snap[len(snap)*99/100]
	if p < h.floor {
		p = h.floor
	}
	h.p99.Store(int64(p))
}

// delay is how long to wait before firing the hedge leg.
func (h *hedgeState) delay() time.Duration {
	d := time.Duration(h.p99.Load())
	if d < h.floor {
		d = h.floor
	}
	return d
}

// hedgedRace issues one request built by build to primary and, if it has
// not answered within the hedge delay (and the budget allows), races an
// identical request against alt. It returns the winning response and a
// release func that recycles it; a non-nil error means no leg produced a
// response. alt may be nil: a single leg with pooled buffers, which has no
// second leg to select against, so it is a split-phase call — on an idle
// connection this goroutine sends the frame and reads the reply. Only a
// race runs each leg's call on a goroutine of its own, to select on.
func (c *Client) hedgedRace(primary, alt *datalet.Link, build func(*wire.Request)) (*wire.Response, func(), error) {
	launch := func(p *datalet.Link) (*wire.Request, *wire.Response, <-chan error) {
		req := wire.GetRequest()
		build(req)
		resp := wire.GetResponse()
		errc := make(chan error, 1)
		go func() { errc <- p.Do(req, resp) }()
		return req, resp, errc
	}
	finish := func(req *wire.Request, resp *wire.Response, err error) (*wire.Response, func(), error) {
		if err != nil {
			wire.PutRequest(req)
			wire.PutResponse(resp)
			return nil, nil, err
		}
		return resp, func() { wire.PutRequest(req); wire.PutResponse(resp) }, nil
	}
	// abandon walks away from an in-flight leg: the drain goroutine
	// recycles its buffers once the late response (or failure) lands.
	abandon := func(req *wire.Request, resp *wire.Response, errc <-chan error) {
		go func() {
			<-errc
			wire.PutRequest(req)
			wire.PutResponse(resp)
		}()
	}

	if alt == nil || c.hedge == nil {
		req, resp := wire.GetRequest(), wire.GetResponse()
		build(req)
		return finish(req, resp, primary.Do(req, resp))
	}
	req1, resp1, errc1 := launch(primary)
	timer := time.NewTimer(c.hedge.delay())
	defer timer.Stop()
	select {
	case err := <-errc1:
		return finish(req1, resp1, err)
	case <-timer.C:
	}
	if !c.hedge.budget.Allow() {
		return finish(req1, resp1, <-errc1)
	}
	clientHedgedReads.Inc()
	req2, resp2, errc2 := launch(alt)
	select {
	case err := <-errc1:
		if err == nil {
			abandon(req2, resp2, errc2)
			return finish(req1, resp1, nil)
		}
		// Primary died after we hedged; the hedge leg is the last hope.
		wire.PutRequest(req1)
		wire.PutResponse(resp1)
		err2 := <-errc2
		if err2 == nil {
			clientHedgeWins.Inc()
		}
		return finish(req2, resp2, err2)
	case err := <-errc2:
		if err == nil && (resp2.Status == wire.StatusOK || resp2.Status == wire.StatusNotFound) {
			clientHedgeWins.Inc()
			abandon(req1, resp1, errc1)
			return finish(req2, resp2, nil)
		}
		// The hedge leg was no better; settle for the primary.
		wire.PutRequest(req2)
		wire.PutResponse(resp2)
		return finish(req1, resp1, <-errc1)
	}
}

// hedgedControletGet serves an eventual-level read with a replica choice as
// a hedged race between two controlets. ok=false means the caller should
// take the ordinary retrying path (ineligible, no second replica, or the
// race produced nothing usable).
func (c *Client) hedgedControletGet(req *wire.Request, level wire.Level) (val []byte, found, ok bool) {
	if c.hedge == nil {
		return nil, false, false
	}
	if c.degraded() {
		// Sustained overload pushback: hedging is the first thing to go.
		// The ordinary retrying path serves the read with one leg.
		clientHedgeSuppressed.Inc()
		return nil, false, false
	}
	shard, m, err := c.shardFor(req.Key)
	if err != nil || level.Strong(m.Mode.Route().Strong) {
		return nil, false, false
	}
	readable := shard.ReadReplicas()
	if len(readable) < 2 {
		return nil, false, false
	}
	pi := c.randInt(len(readable))
	ai := (pi + 1 + c.randInt(len(readable)-1)) % len(readable)
	primary := c.links.To(readable[pi].ControletAddr, c.cfg.Codec)
	alt := c.links.To(readable[ai].ControletAddr, c.cfg.Codec)
	start := time.Now()
	resp, release, err := c.hedgedRace(primary, alt, func(r *wire.Request) {
		r.Op = wire.OpGet
		r.Table = req.Table
		r.Key = req.Key
		r.Level = level
		r.Epoch = m.Epoch
		r.TraceID = req.TraceID
		if c.cfg.OpBudget > 0 {
			r.Deadline = uint64(c.cfg.OpBudget)
		}
	})
	if err != nil {
		return nil, false, false
	}
	defer release()
	dur := time.Since(start)
	c.hedge.observe(dur)
	switch resp.Status {
	case wire.StatusOK:
		c.rec.Count(wire.OpGet, dur)
		return append([]byte(nil), resp.Value...), true, true
	case wire.StatusNotFound:
		c.rec.Count(wire.OpGet, dur)
		return nil, false, true
	case wire.StatusWrongEpoch:
		c.refreshAsync(resp.Epoch)
	}
	return nil, false, false
}
