package controlet

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/dlm"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// AA+SC (§C-B) orders a key's writes under an exclusive DLM lease, applies
// them at every replica before the ack, and serves strong reads under the
// same exclusion. What is leased is a slot — one of topology.Slots per
// shard, topology.SlotOf(key) — and each slot has an owner
// (topology.Shard.SlotOwner), the replica clients send the slot's keys to.
// The owner takes the slot's lease on first use and keeps it across
// operations, so while the lease is valid a read is a local read and a
// write an apply-local plus write-all, with no DLM round trip. A replica
// asked about a slot it does not own relays a single-key op to the owner
// once; an op that was relayed already, a batch, and an op whose owner does
// not answer are served where they are, under the slot's lease taken for
// that operation only — so correctness never depends on who anybody thinks
// the owner is. Inside the controlet holding a slot's lease, a read of a key
// waits out the writes of that key in flight and the other way round (a
// write is in flight from its local apply to the end of its write-all), so
// a read never returns a value some replica may still lack. DESIGN.md
// "AA+SC slot leases" has the validity argument.

// slotLease is one slot's DLM lease as this controlet holds it. Every DLM
// call for the slot is made with the busy token, so a Lock sent after an
// Unlock of the slot reaches the DLM after it.
type slotLease struct {
	key  string // DLM key: table \x00 shard \x00 slot
	slot int

	mu    sync.Mutex
	cond  sync.Cond // on mu: a DLM call for the slot returned, or a key freed up
	held  bool      // granted, and not released by this controlet since
	busy  bool      // a DLM call for the slot is in flight
	users int       // operations running under the lease
	sent  time.Time // send time of the Lock that granted or last extended it
	until time.Time // operations may start under the lease before this
	used  time.Time // when the last operation started
	// keys holds, by KeyHash, the keys with an operation running or
	// waiting; two keys whose hashes collide merely exclude each other.
	keys map[uint64]keyUse
}

// keyUse is who is inside one key: reads, or writes, never both. Reads
// share the key with reads and writes with writes (the Lamport stamps order
// concurrent writes). An arriving operation also waits while the other kind
// waits; when the last of one kind leaves, the waiting other kind goes
// first, so a stream of one kind cannot starve the other.
type keyUse struct {
	readers, writers int32 // operations inside
	waitR, waitW     int32 // operations waiting to get in
	writeTurn        bool  // waiting writes go before waiting reads
}

// slotOp is one operation inside a slot lease, from enter to exit.
type slotOp struct {
	e     *slotLease
	h     uint64 // the key's KeyHash
	write bool
	// doneBy (UnixNano) bounds everything the operation does at any
	// replica: it is stamped on the operation's frames as their deadline.
	doneBy int64
}

// bound returns the deadline dl narrowed to the operation's doneBy.
func (op slotOp) bound(dl int64) int64 {
	if dl == 0 || op.doneBy < dl {
		return op.doneBy
	}
	return dl
}

// slotSet is one table's slots in this controlet's shard.
type slotSet [topology.Slots]slotLease

// slotMask marks the slots this controlet owns under its current map.
type slotMask [topology.Slots / 64]uint64

// lockClient is this controlet's side of the DLM: the connection and the
// slot leases taken over it.
type lockClient struct {
	s   *Server
	c   *dlm.Client
	ttl time.Duration

	owned atomic.Pointer[slotMask]
	// sets is copied on write: an operation finds its slot with one atomic
	// load and a map read.
	sets atomic.Pointer[map[string]*slotSet]
	mu   sync.Mutex    // serializes remaps, and additions to sets
	kick chan struct{} // wakes tend after a map change
}

func (s *Server) startLocks() error {
	if s.cfg.DLMAddr == "" {
		return errors.New("controlet: AA+SC requires DLMAddr")
	}
	c, err := dlm.DialClient(s.cfg.Network, s.cfg.DLMAddr, s.cfg.NodeID)
	if err != nil {
		return err
	}
	l := &lockClient{s: s, c: c, ttl: s.cfg.LockTTL, kick: make(chan struct{}, 1)}
	l.owned.Store(new(slotMask))
	l.sets.Store(&map[string]*slotSet{})
	s.locks = l
	s.wg.Add(1)
	go l.tend()
	return nil
}

// validity is how long after a Lock's send time operations may start under
// the lease it granted, and doneBy how long after it they must be done at
// every replica. The DLM dates the lease from when it grants it, which is
// after the send, on a clock that never runs ahead of real time, so the
// lease lives at least TTL past the send. An operation's frames carry
// doneBy as their deadline, so no replica applies one later than that —
// give or take the frame's time on the wire, which with clock-rate drift is
// what the last eighth covers; the eighth before it is what an operation
// starting just before the cutoff has to finish in.
func (l *lockClient) validity() time.Duration { return l.ttl - l.ttl/4 }

func (l *lockClient) doneBy() time.Duration { return l.ttl - l.ttl/8 }

func (l *lockClient) owns(slot int) bool {
	return l.owned.Load()[slot/64]&(1<<(slot%64)) != 0
}

// remap recomputes the slots this controlet owns after a map is installed:
// none during a transition or when it is not in a shard. It reads the
// installed map itself, under the mutex, so of two racing installs the
// later one's mask is the one left. The leases this controlet stops owning
// are given back by tend once nobody is inside them.
func (l *lockClient) remap() {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.s.Map()
	mask := new(slotMask)
	if shard, pos := l.s.myShard(m); pos >= 0 && m.Transition == nil {
		for slot := 0; slot < topology.Slots; slot++ {
			if shard.SlotOwner(slot).ID == l.s.cfg.NodeID {
				mask[slot/64] |= 1 << (slot % 64)
			}
		}
	}
	l.owned.Store(mask)
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// lease returns table's slot, creating the table's slot set on first use.
func (l *lockClient) lease(table string, slot int) *slotLease {
	if set := (*l.sets.Load())[table]; set != nil {
		return &set[slot]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	sets := *l.sets.Load()
	set := sets[table]
	if set == nil {
		set = new(slotSet)
		shard := l.s.shardID()
		for i := range set {
			e := &set[i]
			e.key = table + "\x00" + shard + "\x00" + strconv.Itoa(i)
			e.slot = i
			e.cond.L = &e.mu
		}
		next := make(map[string]*slotSet, len(sets)+1)
		for t, s := range sets {
			next[t] = s
		}
		next[table] = set
		l.sets.Store(&next)
	}
	return &set[slot]
}

// enter starts one read or write of key: once no operation of the other
// kind is inside the key, under the slot's lease this controlet holds if it
// is still valid, otherwise once the DLM has granted it. The caller exits
// when the operation is done.
func (l *lockClient) enter(table string, key []byte, write bool, tid uint64) (slotOp, error) {
	e := l.lease(table, topology.SlotOf(key))
	if !l.owns(e.slot) {
		ctlSlotFallback.Inc()
	}
	op := slotOp{e: e, h: topology.KeyHash(key), write: write}
	e.mu.Lock()
	defer e.mu.Unlock()
	waited := false
	for {
		now := time.Now()
		switch {
		case !e.free(op, waited):
			e.await(op)
			waited = true
		case e.held && now.Before(e.until):
			e.users++
			e.used = now
			e.join(op)
			op.doneBy = e.sent.Add(l.doneBy()).UnixNano()
			return op, nil
		case e.busy:
			e.cond.Wait()
		default:
			// Not held, or held but past its cutoff, in which case this
			// Lock extends it: the DLM grants a lease to its holder again.
			ctlSlotAcquire.Inc()
			sent, err := l.lock(e, tid, l.ttl)
			if err != nil {
				return slotOp{}, downstream{"dlm", err}
			}
			e.held, e.sent, e.until, e.used = true, sent, sent.Add(l.validity()), sent
		}
	}
}

// exit ends an operation begun with enter. The last one out of a slot this
// controlet does not own gives the lease back.
func (l *lockClient) exit(op slotOp) {
	e := op.e
	e.mu.Lock()
	e.leave(op)
	if e.users--; e.users == 0 && !l.owns(e.slot) {
		l.release(e)
	}
	e.mu.Unlock()
}

// free reports whether op may get into its key now: nothing of the other
// kind inside, and nothing of it waiting either — unless op has waited
// itself and it is op's kind's turn. Caller holds e.mu.
func (e *slotLease) free(op slotOp, waited bool) bool {
	k := e.keys[op.h]
	return *k.inside(!op.write) == 0 && (*k.waiting(!op.write) == 0 || waited && k.writeTurn == op.write)
}

// await waits, counted as waiting for op's key, until something changes.
// Caller holds e.mu.
func (e *slotLease) await(op slotOp) {
	k := e.keys[op.h]
	*k.waiting(op.write)++
	e.put(op.h, k)
	e.cond.Wait()
	k = e.keys[op.h]
	*k.waiting(op.write)--
	e.put(op.h, k)
}

// join records op inside its key. Caller holds e.mu.
func (e *slotLease) join(op slotOp) {
	k := e.keys[op.h]
	*k.inside(op.write)++
	e.put(op.h, k)
}

// leave takes op out of its key; the last of its kind out hands the key to
// the other kind if any of it waits. Caller holds e.mu.
func (e *slotLease) leave(op slotOp) {
	k := e.keys[op.h]
	n := k.inside(op.write)
	if *n--; *n == 0 && *k.waiting(!op.write) > 0 {
		k.writeTurn = !op.write
		e.cond.Broadcast()
	}
	e.put(op.h, k)
}

// put stores key h's entry, dropping it once nobody is inside or waiting.
func (e *slotLease) put(h uint64, k keyUse) {
	switch {
	case k.readers|k.writers|k.waitR|k.waitW != 0:
		if e.keys == nil {
			e.keys = make(map[uint64]keyUse)
		}
		e.keys[h] = k
	case e.keys != nil:
		delete(e.keys, h)
	}
}

func (k *keyUse) inside(write bool) *int32 {
	if write {
		return &k.writers
	}
	return &k.readers
}

func (k *keyUse) waiting(write bool) *int32 {
	if write {
		return &k.waitW
	}
	return &k.waitR
}

// lock sends one exclusive Lock for e's slot, waiting up to wait for it,
// and returns the send time. Caller holds e.mu and must not hold the busy
// token; the mutex is dropped for the round trip.
func (l *lockClient) lock(e *slotLease, tid uint64, wait time.Duration) (time.Time, error) {
	e.busy = true
	e.mu.Unlock()
	sent := time.Now()
	_, err := l.c.LockTraced(tid, e.key, dlm.Write, l.ttl, wait)
	l.s.observeWait(ctlLockWait, tid, "dlm.wait", sent, err)
	e.mu.Lock()
	e.busy = false
	e.cond.Broadcast()
	return sent, err
}

// release gives e's lease back with a one-way Unlock, if it is held, idle
// and no other DLM call for the slot is in flight (whoever holds the busy
// token settles the slot afterwards). Caller holds e.mu.
func (l *lockClient) release(e *slotLease) {
	if !e.held || e.busy || e.users > 0 {
		return
	}
	e.held, e.busy = false, true
	e.mu.Unlock()
	ctlSlotRelease.Inc()
	err := l.c.Unlock(e.key, dlm.Write)
	e.mu.Lock()
	e.busy = false
	e.cond.Broadcast()
	if err != nil {
		l.s.cfg.Logf("controlet %s: unlock slot %q: %v (lease will expire)", l.s.cfg.NodeID, e.key, err)
	}
}

// tend keeps owned leases alive and gives the others back. Every TTL/8 — and
// after a map change — it releases a lease nobody is inside that this
// controlet no longer owns or has not used for half a TTL, and renews, off
// this goroutine, an owned lease whose last Lock is half a TTL old.
func (l *lockClient) tend() {
	defer l.s.wg.Done()
	tick := time.NewTicker(l.ttl / 8)
	defer tick.Stop()
	for {
		select {
		case <-l.s.stopCh:
			return
		case <-tick.C:
		case <-l.kick:
		}
		now := time.Now()
		for _, set := range *l.sets.Load() {
			for i := range set {
				e := &set[i]
				e.mu.Lock()
				switch owned := l.owns(e.slot); {
				case !e.held || e.busy:
				case e.users == 0 && (!owned || now.Sub(e.used) > l.ttl/2):
					l.release(e)
				case owned && now.Sub(e.sent) > l.ttl/2:
					l.s.wg.Add(1)
					go l.renew(e)
				}
				e.mu.Unlock()
			}
		}
	}
}

// renew extends an owned lease: the DLM grants its holder the same lease
// again with a fresh TTL.
func (l *lockClient) renew(e *slotLease) {
	defer l.s.wg.Done()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.held || e.busy || time.Since(e.sent) <= l.ttl/2 {
		return // renewed or released since tend looked
	}
	if sent, err := l.lock(e, 0, 0); err == nil {
		e.sent, e.until = sent, sent.Add(l.validity())
		ctlSlotRenew.Inc()
	}
	if e.users == 0 && !l.owns(e.slot) {
		l.release(e)
	}
}

// held counts the slot leases this controlet holds.
func (l *lockClient) held() int {
	n := 0
	for _, set := range *l.sets.Load() {
		for i := range set {
			set[i].mu.Lock()
			if set[i].held {
				n++
			}
			set[i].mu.Unlock()
		}
	}
	return n
}

// close gives back every lease nobody is inside and drops the connection;
// the leases of operations still running expire by their TTL.
func (l *lockClient) close() {
	for _, set := range *l.sets.Load() {
		for i := range set {
			set[i].mu.Lock()
			l.release(&set[i])
			set[i].mu.Unlock()
		}
	}
	_ = l.c.Close()
}

// lockWrite starts a single-pair write set under its slot's lease (§C-B).
// The lease spans the local apply as well as the write-all, and the write
// set's deadline is narrowed to the lease's doneBy, which every frame of
// the write carries: a replica refuses the write rather than apply it after
// the lease may have passed to another controlet.
func (s *Server) lockWrite(w *writeSet) (slotOp, error) {
	op, err := s.locks.enter(w.table, w.pairs[0].Key, true, w.tid)
	if err == nil {
		w.dlAt = op.bound(w.dlAt)
	}
	return op, err
}

// relaySlot hands a single-key op on a slot another replica owns to that
// owner, once, and reports whether it did (resp then holds the answer). It
// declines — the op is then served here under a per-op lease — for an op
// that was relayed already (Limit > 0), during a transition (handoffs all
// land on the new head and must not bounce between new-mode controlets),
// and when the link to the owner is down.
func (s *Server) relaySlot(m *topology.Map, shard topology.Shard, req *wire.Request, resp *wire.Response) bool {
	if m == nil || m.Transition != nil || req.Limit > 0 {
		return false
	}
	slot := topology.SlotOf(req.Key)
	if s.locks.owns(slot) {
		return false
	}
	owner := shard.SlotOwner(slot)
	if owner.ID == s.cfg.NodeID {
		return false
	}
	fwd := *req
	fwd.Limit = 1
	if err := s.relay(owner.ControletAddr, &fwd, resp); errors.Is(err, datalet.ErrLinkDown) {
		// Never sent: the owner is down or being re-dialled. Any other
		// failure may have reached it, and serving the op here as well
		// could apply one write twice.
		resp.Reset()
		return false
	}
	ctlSlotRelay.Inc()
	return true
}

// replicateAll is the AA+SC replicate stage: apply the write at every peer
// replica concurrently — the fan-out rides the pipelined peer connections
// so the write-all costs one round-trip to the slowest peer, not the sum.
// It always waits for every peer (in-flight frames alias the client
// request's buffers); the first error wins. A dead peer fails the write;
// nothing is half-committed from the client's point of view, because the
// lease holder still owns the key — the op is simply not acked.
func (s *Server) replicateAll(_ *topology.Map, shard topology.Shard, w *writeSet) error {
	calls := make([]peerCall, 0, len(shard.Replicas)-1)
	for _, n := range shard.Replicas {
		if n.ID == s.cfg.NodeID {
			continue
		}
		fwd := wire.GetRequest()
		w.encode(fwd, frameRepl, wire.StatusOK)
		ctlReplicateAll.Inc()
		calls = append(calls, s.send(n.ControletAddr, fwd))
	}
	var firstErr error
	for i := range calls {
		if err := calls[i].wait(s); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// lockedRead is the AA+SC strong read: a local read under the key's slot
// lease, once no write of the key is in flight here — any active node
// serves linearizable reads, because a write holds its slot's lease across
// every replica and the lease's holder reads only what every replica has. A
// GET on a slot another replica owns is relayed there once; a batch is read
// key by key, each under its own slot's lease, and merged back into one
// frame.
func (s *Server) lockedRead(m *topology.Map, shard topology.Shard, req *wire.Request, resp *wire.Response) {
	if req.Op == wire.OpGet {
		if !s.relaySlot(m, shard, req, resp) {
			s.lockedGet(req, resp)
		}
		return
	}
	kreq := wire.GetRequest()
	kresp := wire.GetResponse()
	defer wire.PutRequest(kreq)
	defer wire.PutResponse(kresp)
	resp.Status = wire.StatusOK
	for i := range req.Pairs {
		kreq.Reset()
		kreq.Op = wire.OpGet
		kreq.Table = req.Table
		kreq.Key = req.Pairs[i].Key
		kreq.Level = req.Level
		kreq.TraceID = req.TraceID
		kreq.DeadlineAt = req.DeadlineAt
		kresp.Reset()
		s.lockedGet(kreq, kresp)
		kv := wire.KV{}
		if kresp.Status == wire.StatusOK {
			kv = wire.KV{Value: append([]byte(nil), kresp.Value...), Version: kresp.Version}
		}
		resp.Pairs = append(resp.Pairs, kv)
		resp.Statuses = append(resp.Statuses, kresp.Status)
	}
}

func (s *Server) lockedGet(req *wire.Request, resp *wire.Response) {
	op, err := s.locks.enter(req.Table, req.Key, false, req.TraceID)
	if err != nil {
		refuse(resp, err.Error())
		return
	}
	dl := req.DeadlineAt
	req.DeadlineAt = op.bound(dl)
	s.localCall(req, resp)
	req.DeadlineAt = dl
	s.locks.exit(op)
}
