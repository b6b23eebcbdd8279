package client

import (
	"math/rand/v2"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/metrics"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// Direct reads: with a live coordinator-granted map lease, SC-safe reads
// skip the controlet and hit the owning datalet itself — zero metadata hops
// on the hot path. Both ends are fenced: the client trusts its map only for
// the lease TTL (renewed over the existing watch long-poll), and the
// datalet checks the request's epoch against its own controlet-granted
// epoch lease, answering StatusWrongEpoch on any mismatch so a stale
// reader falls back through the controlet and refreshes.
//
// SC-safe cases (reads whose answer a datalet can give without the
// controlet's mode logic):
//   - eventual-level reads: any readable replica's datalet
//   - MS+SC strong reads: the chain tail's datalet — the tail stores only
//     fully-replicated writes, so its local answer is the same
//     linearizable answer its controlet would give
//   - MS+EC default reads: the master's datalet (freshest copy)
//
// AA+SC strong reads stay on the controlet path (their slot's owner serves
// them from its copy, which it applies last), as does everything during a
// transition.

// dataletLink returns the direct link to n's datalet, in the datalet's own
// protocol. A link that is down fails the read's frame, and the caller
// falls back through the controlet.
func (c *Client) dataletLink(n topology.Node) *datalet.Link {
	return c.dlinks.To(n.DataletAddr, wire.CodecOr(n.DataletCodec, c.cfg.Codec))
}

// directTarget returns the replica whose datalet may answer a read of key
// at level without its controlet; ok=false means the read is not SC-safe to
// serve directly under m's mode.
func directTarget(m *topology.Map, shard topology.Shard, key []byte, level wire.Level) (n topology.Node, ok bool) {
	rt := m.Mode.Route()
	switch {
	case !level.Strong(rt.Strong):
		return shard.Pick(topology.ToAny, key, rand.IntN), true
	case rt.Direct:
		return shard.Pick(rt.Read, key, rand.IntN), true
	default:
		return topology.Node{}, false // AA strong reads need their slot's lease
	}
}

// directOn reports whether direct reads are on the table right now: the
// client is configured for them and its map lease is live. It reads the
// clock, so a MultiGet asks once for all its buckets.
func (c *Client) directOn() bool {
	return c.cfg.DirectReads && c.leaseLive()
}

// directReadable returns the routing snapshot for a direct read of key,
// once directOn has said yes; false while the map is mid-transition.
func (c *Client) directReadable(key []byte) (topology.Shard, *topology.Map, bool) {
	shard, m, err := c.shardFor(key)
	if err != nil || m.Transition != nil {
		// Mid-transition routing is the controlet's business (handoffs,
		// draining); direct reads resume after the cutover's epoch bump.
		return topology.Shard{}, nil, false
	}
	return shard, m, true
}

// directGet serves one key straight from the owning datalet. ok=false means
// the caller should take the controlet path (ineligible, unreachable
// datalet, stale epoch, expired datalet lease — all fall back, never fail).
func (c *Client) directGet(table string, key []byte, level wire.Level) (val []byte, found, ok bool) {
	if !c.directOn() {
		return nil, false, false
	}
	shard, m, eligible := c.directReadable(key)
	if !eligible {
		return nil, false, false
	}
	target, ok := directTarget(m, shard, key, level)
	if !ok {
		return nil, false, false
	}
	primary := c.dataletLink(target)
	// Hedge only reads with a genuine replica choice — and not while the
	// cluster is pushing back (see Client.degraded).
	var alt *datalet.Link
	if c.hedge != nil && !level.Strong(m.Mode.Route().Strong) && !c.degraded() {
		if n := shard.Pick(topology.ToAny, key, rand.IntN); n.ID != target.ID {
			alt = c.dataletLink(n)
		}
	}
	start := c.lat.Start(c.hedge != nil)
	resp, release, err := c.hedgedRace(primary, alt, func(r *wire.Request) {
		r.Op = wire.OpDirectGet
		r.Table = table
		r.Epoch = m.Epoch
		r.Level = level
		r.Pairs = append(r.Pairs, wire.KV{Key: key})
		if c.cfg.OpBudget > 0 {
			r.Deadline = uint64(c.cfg.OpBudget)
		}
	})
	if err != nil {
		clientDirectFallbacks.Inc()
		return nil, false, false
	}
	defer release()
	dur := metrics.Since(start)
	if c.hedge != nil {
		c.hedge.observe(dur)
	}
	if resp.Status != wire.StatusOK || len(resp.Pairs) != 1 || len(resp.Statuses) != 1 {
		if resp.Status == wire.StatusWrongEpoch {
			c.refreshAsync(resp.Epoch) // the datalet outed our stale map
		}
		clientDirectFallbacks.Inc()
		return nil, false, false
	}
	clientDirectReads.Inc()
	c.rec.Count(wire.OpDirectGet, dur)
	switch resp.Statuses[0] {
	case wire.StatusOK:
		return append([]byte(nil), resp.Pairs[0].Value...), true, true
	case wire.StatusNotFound:
		return nil, false, true
	default:
		return nil, false, false
	}
}

// pendingMGet is one bucket's in-flight direct multi-get frame.
type pendingMGet struct {
	b     *bucket
	req   *wire.Request
	resp  *wire.Response
	call  datalet.Pending
	start time.Time
}

// submitDirectMGet starts one bucket's OpDirectGet frame without waiting
// for the reply, so a MultiGet's shard fan-out has every frame on the wire
// before the first reply is read. The caller has checked directOn.
// ok=false means the bucket is not direct-eligible and should go through
// the controlet path.
func (c *Client) submitDirectMGet(table string, level wire.Level, b *bucket) (pendingMGet, bool) {
	shard, m, eligible := c.directReadable(b.keys[0])
	if !eligible {
		return pendingMGet{}, false
	}
	target, ok := directTarget(m, shard, b.keys[0], level)
	if !ok {
		return pendingMGet{}, false
	}
	link := c.dataletLink(target)
	req := wire.GetRequest()
	resp := wire.GetResponse()
	req.Op = wire.OpDirectGet
	req.Table = table
	req.Epoch = m.Epoch
	req.Level = level
	if c.cfg.OpBudget > 0 {
		req.Deadline = uint64(c.cfg.OpBudget)
	}
	for _, k := range b.keys {
		req.Pairs = append(req.Pairs, wire.KV{Key: k})
	}
	return pendingMGet{
		b: b, req: req, resp: resp,
		call:  link.Start(req, resp),
		start: c.lat.Start(false),
	}, true
}

// awaitDirectMGet collects one in-flight direct frame and fills
// out[b.idxs[i]] for every key it answered. ok=false means the frame was
// bounced (stale epoch, dead datalet) and the bucket needs the controlet
// fallback.
func (c *Client) awaitDirectMGet(pd pendingMGet, out []MultiResult) bool {
	err := pd.call.Wait()
	defer wire.PutRequest(pd.req)
	defer wire.PutResponse(pd.resp)
	resp, keys := pd.resp, pd.b.keys
	if err != nil {
		clientDirectFallbacks.Inc()
		return false
	}
	if resp.Status != wire.StatusOK || len(resp.Pairs) != len(keys) || len(resp.Statuses) != len(keys) {
		if resp.Status == wire.StatusWrongEpoch {
			c.refreshAsync(resp.Epoch)
		}
		clientDirectFallbacks.Inc()
		return false
	}
	clientDirectReads.Inc()
	c.rec.Count(wire.OpDirectGet, metrics.Since(pd.start))
	fillMultiGet(pd.b, resp, out)
	return true
}
