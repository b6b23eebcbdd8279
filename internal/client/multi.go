package client

import (
	"errors"
	"fmt"
	"sync"

	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// Shard-coalesced batch API: MultiGet/MultiPut bucket keys by destination
// shard under the current map, ship one multi-op frame per shard (decoded
// server-side into a single engine pass), fan the buckets out concurrently
// over the existing connections, and reassemble answers in the caller's key
// order with per-key error reporting. A batch of N keys touching S shards
// costs S frames instead of N round trips.

// MultiResult is the per-key outcome of a batch operation.
type MultiResult struct {
	// Value is the value read (MultiGet only; nil when !Found).
	Value []byte
	// Found reports whether the key existed.
	Found bool
	// Err is the per-key failure, nil on success. A shard-wide failure
	// (unreachable, out of retries) lands on every key of that bucket.
	Err error
}

// statusErr converts a non-OK per-key status into a per-key error.
func statusErr(st wire.Status) error {
	return fmt.Errorf("client: %s", st)
}

// bucket is the slice of a batch that goes out as one frame.
type bucket struct {
	keys [][]byte // batch keys, same order as idxs
	idxs []int    // positions in the caller's slice, ascending
}

// bucketDest is where a bucket's frame goes within its shard: when the
// mode sends each key to its slot's owner, that owner. next chains the
// buckets of one shard (-1 ends the chain); n counts the bucket's keys.
type bucketDest struct {
	owner string
	next  int
	n     int
}

// bucketByShard groups batch positions by owning shard and, for an op the
// mode routes to slot owners (AA+SC writes and strong reads), by owner
// within the shard. Buckets come in the order of their first key. A
// counting pass sizes every bucket first, so the keys and positions of all
// of them are windows of one backing array each: a batch costs the same
// few allocations however its keys spread.
func (c *Client) bucketByShard(keys [][]byte, write bool, level wire.Level) ([]bucket, error) {
	c.mu.RLock()
	m, ring := c.m, c.ring
	c.mu.RUnlock()
	if m == nil || len(m.Shards) == 0 {
		return nil, errors.New("client: no cluster map")
	}
	rt := m.Mode.Route()
	byOwner := rt.Write == topology.ToOwner
	if !write {
		byOwner = rt.Read == topology.ToOwner && level.Strong(rt.Strong)
	}
	// first[s] is 1 + the number of shard s's first bucket (0: none yet).
	var firstBuf [16]int
	first := firstBuf[:]
	if len(m.Shards) > len(first) {
		first = make([]int, len(m.Shards))
	}
	var destBuf [8]bucketDest
	dests := destBuf[:0]
	of := make([]int, len(keys)) // each position's bucket
	for i, k := range keys {
		s := m.ShardFor(k, ring)
		owner := ""
		if byOwner {
			owner = m.Shards[s].SlotOwner(topology.SlotOf(k)).ID
		}
		b := first[s] - 1
		if b < 0 {
			b = len(dests)
			first[s] = b + 1
			dests = append(dests, bucketDest{owner: owner, next: -1})
		}
		for dests[b].owner != owner {
			if dests[b].next < 0 {
				dests[b].next = len(dests)
				dests = append(dests, bucketDest{owner: owner, next: -1})
			}
			b = dests[b].next
		}
		dests[b].n++
		of[i] = b
	}
	out := make([]bucket, len(dests))
	allKeys := make([][]byte, len(keys))
	allIdxs := make([]int, len(keys))
	off := 0
	for b := range out {
		end := off + dests[b].n
		out[b] = bucket{keys: allKeys[off:off:end], idxs: allIdxs[off:off:end]}
		off = end
	}
	for i, k := range keys {
		b := &out[of[i]]
		b.keys = append(b.keys, k)
		b.idxs = append(b.idxs, i)
	}
	return out, nil
}

// MultiGet reads every key in one coalesced sweep at the mode's default
// consistency. The returned slice is index-aligned with keys; the error is
// non-nil only when the batch could not be attempted at all.
func (c *Client) MultiGet(table string, keys [][]byte) ([]MultiResult, error) {
	return c.MultiGetLevel(table, keys, wire.LevelDefault)
}

// MultiGetLevel is MultiGet with an explicit consistency level.
func (c *Client) MultiGetLevel(table string, keys [][]byte, level wire.Level) ([]MultiResult, error) {
	out := make([]MultiResult, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	buckets, err := c.bucketByShard(keys, false, level)
	if err != nil {
		return nil, err
	}
	// Direct-eligible buckets are split-phase calls: every frame is
	// started before any reply is awaited, so the datalets work on their
	// buckets at once, and on an idle connection this goroutine sends the
	// frame and reads the reply itself — no goroutine spawn, no handoff.
	// Ineligible buckets (no lease, AA strong reads, mid-transition) take
	// the retrying controlet path concurrently.
	var (
		pendBuf [4]pendingMGet
		pend    = pendBuf[:0]
		wg      sync.WaitGroup
		direct  = c.directOn() // one lease-clock read for every bucket
	)
	for i := range buckets {
		b := &buckets[i]
		if direct {
			if pd, ok := c.submitDirectMGet(table, level, b); ok {
				pend = append(pend, pd)
				continue
			}
		}
		wg.Add(1)
		go func(b *bucket) {
			defer wg.Done()
			c.mgetBucket(table, level, b, out)
		}(b)
	}
	for _, pd := range pend {
		if !c.awaitDirectMGet(pd, out) {
			// The direct frame failed (stale epoch, dead datalet, short
			// reply): this bucket falls back through the controlet.
			c.mgetBucket(table, level, pd.b, out)
		}
	}
	wg.Wait()
	return out, nil
}

// mgetBucket resolves one bucket's keys through the ordinary retrying
// controlet path (the fallback when a direct frame is ineligible or
// bounced).
func (c *Client) mgetBucket(table string, level wire.Level, b *bucket, out []MultiResult) {
	req := wire.Request{Op: wire.OpMGet, Table: table, Level: level}
	for _, k := range b.keys {
		req.Pairs = append(req.Pairs, wire.KV{Key: k})
	}
	var resp wire.Response
	err := c.execute(&req, &resp, func() (string, uint64, error) {
		// Re-derive the shard from a member key each attempt so a
		// failover or migration observed mid-retry re-routes the bucket.
		shard, m, err := c.shardFor(b.keys[0])
		if err != nil {
			return "", 0, err
		}
		return c.readTarget(m, shard, b.keys[0], level).ControletAddr, m.Epoch, nil
	})
	if err == nil {
		err = resp.ErrValue()
	}
	if err != nil {
		for _, idx := range b.idxs {
			out[idx] = MultiResult{Err: err}
		}
		return
	}
	fillMultiGet(b, &resp, out)
}

// fillMultiGet fills out[b.idxs[i]] from a multi-get reply whose Pairs and
// Statuses are index-aligned with b's keys. The bucket's values are copied
// into one slab, one allocation however many keys it has; each result is
// capped at its own length, so appending to one cannot reach the next.
func fillMultiGet(b *bucket, resp *wire.Response, out []MultiResult) {
	answered := min(len(b.idxs), len(resp.Statuses), len(resp.Pairs))
	n := 0
	for i := 0; i < answered; i++ {
		if resp.Statuses[i] == wire.StatusOK {
			n += len(resp.Pairs[i].Value)
		}
	}
	slab := make([]byte, 0, n)
	for i, idx := range b.idxs {
		if i >= answered {
			out[idx] = MultiResult{Err: errors.New("client: short multi-get response")}
			continue
		}
		switch resp.Statuses[i] {
		case wire.StatusOK:
			start := len(slab)
			slab = append(slab, resp.Pairs[i].Value...)
			out[idx] = MultiResult{Value: slab[start:len(slab):len(slab)], Found: true}
		case wire.StatusNotFound:
			out[idx] = MultiResult{}
		default:
			out[idx] = MultiResult{Err: statusErr(resp.Statuses[i])}
		}
	}
}

// MultiPut writes every pair in one coalesced sweep. The returned slice is
// index-aligned with pairs: errs[i] is nil when pairs[i] was durably
// accepted. The error is non-nil only when the batch could not be
// attempted at all — per-shard failures (one shard down, the rest healthy)
// surface as per-key errors, and the healthy shards' writes stand.
func (c *Client) MultiPut(table string, pairs []wire.KV) ([]error, error) {
	errs := make([]error, len(pairs))
	if len(pairs) == 0 {
		return errs, nil
	}
	keys := make([][]byte, len(pairs))
	for i := range pairs {
		keys[i] = pairs[i].Key
	}
	buckets, err := c.bucketByShard(keys, true, wire.LevelDefault)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for i := range buckets {
		wg.Add(1)
		go func(b *bucket) {
			defer wg.Done()
			c.mputBucket(table, pairs, b, errs)
		}(&buckets[i])
	}
	wg.Wait()
	if c.hot != nil {
		for i := range pairs {
			if errs[i] == nil && c.hot.touch(pairs[i].Key) {
				c.hotPut(table, pairs[i].Key, pairs[i].Value)
			}
		}
	}
	return errs, nil
}

// mputBucket writes one bucket's pairs through the retrying controlet path.
// A pair the server shed (StatusOverloaded: the MS+EC backlog is full) is
// sent again with the rest of the shed pairs, as a shed Put would be; a
// re-applied pair is idempotent under LWW.
func (c *Client) mputBucket(table string, pairs []wire.KV, b *bucket, errs []error) {
	req := wire.Request{Op: wire.OpMPut, Table: table}
	for _, idx := range b.idxs {
		req.Pairs = append(req.Pairs, wire.KV{Key: pairs[idx].Key, Value: pairs[idx].Value})
	}
	// pending holds the positions of the pairs still in req, index-aligned
	// with req.Pairs.
	pending := append([]int(nil), b.idxs...)
	settle := func(resp *wire.Response) bool {
		shed, kept := pending[:0], req.Pairs[:0]
		for i, idx := range pending {
			switch {
			case i >= len(resp.Statuses):
				errs[idx] = errors.New("client: short multi-put response")
			case resp.Statuses[i] == wire.StatusOverloaded:
				shed, kept = append(shed, idx), append(kept, req.Pairs[i])
			case resp.Statuses[i] != wire.StatusOK:
				errs[idx] = statusErr(resp.Statuses[i])
			}
		}
		pending, req.Pairs = shed, kept
		return len(pending) > 0
	}
	var resp wire.Response
	err := c.executeShedding(&req, &resp, func() (string, uint64, error) {
		shard, m, err := c.shardFor(b.keys[0])
		if err != nil {
			return "", 0, err
		}
		return c.writeTarget(m, shard, b.keys[0]).ControletAddr, m.Epoch, nil
	}, settle)
	if err == nil {
		err = resp.ErrValue()
	}
	if err != nil {
		for _, idx := range pending {
			errs[idx] = err
		}
	}
}
