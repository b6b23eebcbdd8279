package client

import (
	"sync"

	"bespokv/internal/telemetry"
	"bespokv/internal/wire"
)

// Hot-key load balancing (Appendix C discussion): "load imbalance due to
// hot keys can be solved by integrating a small metadata cache at
// bespokv's client library to keep track of hot keys; once the popularity
// of hot keys exceeds a pre-defined threshold, the client library
// replicates this key on a shadow server that is rehashed by adding a
// suffix to the key."
//
// hotTracker is that small metadata cache: a space-saving count summary
// (telemetry.Sketch) with periodic halving. When a key's count crosses the
// threshold the client starts writing a shadow copy under
// key+shadowSuffix — which consistent-hashes to a different shard — and
// spreads eventual reads of the key across the primary and the shadow.
// Strong reads always use the primary (the shadow copy is asynchronous by
// construction). Deletes remove both.

const (
	// shadowSuffix rehashes a hot key to its shadow shard.
	shadowSuffix = "\x00#shadow"
	// hotTableCap bounds the tracker; when full, all counts halve and
	// cold entries are evicted (decay keeps the table adaptive).
	hotTableCap = 4096
)

// hotTracker counts key popularity; safe for concurrent use. Besides the
// counts it tracks which shadow copies are fresh — written by this client
// under the current cluster map. A map change (failover, transition,
// migration cutover) invalidates every entry: the shadow's shard placement
// and content can no longer be trusted, so reads use the primary until the
// client re-establishes each shadow with a fresh write.
type hotTracker struct {
	mu        sync.Mutex // serializes touches; guards fresh
	counts    *telemetry.Sketch
	fresh     map[string]struct{}
	threshold int64
}

func newHotTracker(threshold int) *hotTracker {
	return &hotTracker{
		counts:    telemetry.NewSketch(hotTableCap),
		fresh:     make(map[string]struct{}),
		threshold: int64(threshold),
	}
}

// markFresh records that key's shadow copy was just written under the
// current map.
func (h *hotTracker) markFresh(key []byte) {
	h.mu.Lock()
	h.fresh[string(key)] = struct{}{}
	h.mu.Unlock()
}

// isFresh reports whether key's shadow copy may serve reads.
func (h *hotTracker) isFresh(key []byte) bool {
	h.mu.Lock()
	_, ok := h.fresh[string(key)]
	h.mu.Unlock()
	return ok
}

// invalidate drops every shadow's freshness (called on map epoch advance);
// popularity counts survive, so re-warming a shadow takes one write, not a
// threshold's worth of accesses.
func (h *hotTracker) invalidate() {
	h.mu.Lock()
	clear(h.fresh)
	h.mu.Unlock()
}

// touch records one access and reports whether the key is now hot. A new
// key finding the table full halves every count first, which evicts the
// keys counted once.
func (h *hotTracker) touch(key []byte) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, _, ok := h.counts.Count(key); !ok && h.counts.Len() >= hotTableCap {
		h.counts.Decay()
	}
	h.counts.Touch(key, 1)
	return h.hot(key)
}

// hot reports whether key is currently above the threshold: counted at
// least that often even at the count's full over-estimation.
func (h *hotTracker) hot(key []byte) bool {
	c, err, _ := h.counts.Count(key)
	return c-err >= h.threshold
}

// shadowKey derives the rehash key for a hot key.
func shadowKey(key []byte) []byte {
	out := make([]byte, 0, len(key)+len(shadowSuffix))
	out = append(out, key...)
	return append(out, shadowSuffix...)
}

// hotPut mirrors a hot key's write to its shadow shard (best effort: the
// shadow is a cache, the primary remains the source of truth).
func (c *Client) hotPut(table string, key, value []byte) {
	sk := shadowKey(key)
	req := wire.Request{Op: wire.OpPut, Table: table, Key: sk, Value: value}
	var resp wire.Response
	if err := c.execute(&req, &resp, c.routeWrite(sk)); err == nil && resp.Status == wire.StatusOK {
		c.hot.markFresh(key)
	}
}

// hotDel removes the shadow copy alongside the primary delete.
func (c *Client) hotDel(table string, key []byte) {
	sk := shadowKey(key)
	req := wire.Request{Op: wire.OpDel, Table: table, Key: sk}
	var resp wire.Response
	_ = c.execute(&req, &resp, c.routeWrite(sk))
	h := c.hot
	h.mu.Lock()
	delete(h.fresh, string(key))
	h.mu.Unlock()
}

// hotGet tries the shadow copy of a hot key; ok reports a usable answer
// (hit or authoritative miss handled by the caller's fallback).
func (c *Client) hotGet(table string, key []byte) ([]byte, bool) {
	sk := shadowKey(key)
	req := wire.Request{Op: wire.OpGet, Table: table, Key: sk, Level: wire.LevelEventual}
	var resp wire.Response
	err := c.execute(&req, &resp, func() (string, uint64, error) {
		shard, m, err := c.shardFor(sk)
		if err != nil {
			return "", 0, err
		}
		return c.readTarget(m, shard, sk, wire.LevelEventual).ControletAddr, m.Epoch, nil
	})
	if err != nil || resp.Status != wire.StatusOK {
		return nil, false
	}
	return append([]byte(nil), resp.Value...), true
}

// isShadowKey reports whether a stored key is a shadow copy (scan results
// must hide them).
func isShadowKey(key []byte) bool {
	if len(key) < len(shadowSuffix) {
		return false
	}
	return string(key[len(key)-len(shadowSuffix):]) == shadowSuffix
}
