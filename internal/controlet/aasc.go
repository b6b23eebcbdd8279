package controlet

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/rpc"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// AA+SC (§C-B) applies a key's writes at every replica before the ack and
// serves strong reads from one copy, and the installed map is the only
// authority over who does it: of topology.Slots slots per shard
// (topology.SlotOf), it names each one's owner (topology.Shard.SlotOwner),
// which orders the slot's writes and serves its strong reads while it is
// unfenced. Other replicas relay a single-key op to the owner once. The
// owner applies a write locally only after every peer has it, so its copy,
// which a strong read returns, is never ahead of a peer's. A write-all
// frame carries the owner's epoch and its fence instant as its deadline;
// DESIGN.md "AA+SC slot authority" has the argument.

// slotMask is a set of slots.
type slotMask [topology.Slots / 64]uint64

func (m *slotMask) has(slot int) bool { return m[slot/64]&(1<<(slot%64)) != 0 }
func (m *slotMask) set(slot int)      { m[slot/64] |= 1 << (slot % 64) }

// slotView is what one installed map makes of this controlet's slots.
type slotView struct {
	m     *topology.Map // nil until a map is installed
	shard topology.Shard
	// moved is, per slot, the epoch in which its owner last changed here.
	moved [topology.Slots]uint64
	// owned is the slots the map gives this controlet, armed those it may
	// serve. The rest wait for the previous owners still in the shard, from,
	// to install m and drain their writes in flight.
	owned, armed slotMask
	from         []topology.Node
}

// owner returns slot's owner under the view (the zero Node: nobody here).
func (v *slotView) owner(slot int) topology.Node {
	if len(v.shard.Replicas) == 0 {
		return topology.Node{}
	}
	return v.shard.SlotOwner(slot)
}

// foreign reports whether an op on slot goes to another replica: there is
// a map, no transition (those ops go to the new head, which owns every
// slot), and slot is not this controlet's.
func (v *slotView) foreign(slot int) bool {
	return v.m != nil && v.m.Transition == nil && !v.owned.has(slot)
}

// slotTable is this controlet's AA+SC slot authority.
type slotTable struct {
	s      *Server
	mu     sync.Mutex // serializes view changes
	view   atomic.Pointer[slotView]
	arming atomic.Bool // a handoff barrier is in flight
	// keys serializes the owner's writes of a key, by stripe (lockKeys).
	keys [writeStripes]sync.Mutex
}

func (s *Server) startSlots() error {
	l := &slotTable{s: s}
	l.view.Store(&slotView{})
	s.slots = l
	return nil
}

// remap computes the view of m, which SetMap is about to install. A slot
// this controlet keeps stays as it was; one it gains is armed at once when
// its previous owner has left the shard (it was failed out, so its fence
// has fired), and otherwise waits for that owner's handoff barrier.
func (l *slotTable) remap(m *topology.Map) {
	l.mu.Lock()
	defer l.mu.Unlock()
	prev, self := l.view.Load(), l.s.cfg.NodeID
	// Owners come from this controlet's shard, or during a transition from
	// its new shard's head alone, which serves every write handed off to it.
	next := &slotView{m: m}
	if head, ok := l.s.transitionPeer(m); ok {
		next.shard.Replicas = []topology.Node{head}
	} else if mine, pos := l.s.myShard(m); pos >= 0 {
		next.shard = mine
	}
	has := func(nodes []topology.Node, id string) bool {
		return slices.ContainsFunc(nodes, func(n topology.Node) bool { return n.ID == id })
	}
	var from []topology.Node
	wait := func(n topology.Node) {
		if has(next.shard.Replicas, n.ID) && !has(from, n.ID) {
			from = append(from, n)
		}
	}
	for slot := 0; slot < topology.Slots; slot++ {
		o, p := next.owner(slot), prev.owner(slot)
		if next.moved[slot] = prev.moved[slot]; o.ID != p.ID {
			next.moved[slot] = m.Epoch
		}
		if o.ID != self {
			continue
		}
		next.owned.set(slot)
		switch {
		case p.ID == "" || p.ID == self && prev.armed.has(slot) || p.ID != self && !has(next.shard.Replicas, p.ID):
			next.armed.set(slot)
		case p.ID != self:
			wait(p)
		}
	}
	for _, n := range prev.from { // what the slots still waiting waited for
		wait(n)
	}
	if next.from = from; len(from) == 0 {
		next.armed = next.owned
	}
	l.view.Store(next)
}

// authorize reports whether this controlet may serve slot now: it owns it
// under its map, the slot is armed, and it is not fenced. The first
// operation on a slot that waits runs the handoff barrier; the others are
// refused meanwhile.
func (l *slotTable) authorize(slot int) error {
	for {
		v := l.view.Load()
		switch {
		case v.m == nil: // standalone: no map, nobody else to defer to
			return nil
		case v.armed.has(slot):
			if l.s.fenced() {
				ctlFencedRejects.Inc()
				return errFenced
			}
			return nil
		case !v.owned.has(slot):
			return errNotOwner
		}
		if err := l.arm(v); err != nil {
			return err
		}
	}
}

// arm runs v's handoff barrier — each previous owner still in the shard
// installs v's map, then quiesces — and arms every slot of v once all of
// them answered.
func (l *slotTable) arm(v *slotView) error {
	if !l.arming.CompareAndSwap(false, true) {
		return errUnarmed
	}
	defer l.arming.Store(false)
	start := time.Now()
	var err error
	for _, n := range v.from {
		if err = l.s.barrier(n, v.m); err != nil {
			break
		}
	}
	l.s.observeWait(ctlLockWait, 0, "slot.handoff", start, err)
	if err != nil {
		l.s.cfg.Logf("controlet %s: slot handoff: %v", l.s.cfg.NodeID, err)
		return errUnarmed
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.view.Load() == v { // else remapped meanwhile: the caller looks again
		next := *v
		next.armed, next.from = v.owned, nil
		l.view.Store(&next)
	}
	return nil
}

// barrier hands m to node's controlet and waits until every write it had
// executing has finished — the coordinator's standby-join barrier.
func (s *Server) barrier(node topology.Node, m *topology.Map) error {
	ctl, err := rpc.DialClient(s.cfg.Network, node.ControlAddr)
	if err != nil {
		return fmt.Errorf("%s: %w", node.ID, err)
	}
	defer ctl.Close()
	ctl.CallTimeout = 2 * peerCallTimeout // Quiesce waits out writes whose peers take up to one
	if err = ctl.Call("UpdateMap", m, nil); err == nil {
		err = ctl.Call("Quiesce", struct{}{}, nil)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", node.ID, err)
	}
	return nil
}

// fenceBy narrows the deadline dl to the owner's fence instant: the frames
// of an operation authorize let through carry it, so no replica serves it
// after the owner may have been failed out.
func (l *slotTable) fenceBy(dl int64) int64 {
	if doneBy := l.s.fenceAt(); doneBy != 0 && (dl == 0 || doneBy < dl) {
		return doneBy
	}
	return dl
}

// admitWrite authorizes w as the owner of every pair's slot, by its fence
// instant. A batch pair on another replica's slot is relayed there first,
// once; its outcome is final (a success statusDone until replicateAll).
func (s *Server) admitWrite(w *writeSet) error {
	v := s.slots.view.Load()
	for i := range w.pairs {
		slot := topology.SlotOf(w.pairs[i].Key)
		if w.batch && v.foreign(slot) && s.relayWrite(w, i) {
			continue
		}
		if err := s.slots.authorize(slot); err != nil {
			return err
		}
	}
	w.dlAt = s.slots.fenceBy(w.dlAt)
	return nil
}

// relaySlot hands a single-key op on a foreign slot to its owner, once,
// and reports whether it answered the op (resp then holds the owner's
// answer or the refusal). An op relayed already (Limit > 0) or with no
// owner here is refused.
func (s *Server) relaySlot(req *wire.Request, resp *wire.Response) bool {
	v := s.slots.view.Load()
	slot := topology.SlotOf(req.Key)
	if !v.foreign(slot) {
		return false
	}
	owner := v.owner(slot)
	if req.Limit > 0 || owner.ID == "" {
		failWrite(resp, errNotOwner)
		resp.Epoch = v.m.Epoch
		return true
	}
	fwd := *req
	fwd.Limit = 1
	_ = s.relay(owner.ControletAddr, &fwd, resp) // the refusal is the client's answer
	ctlSlotRelay.Inc()
	return true
}

// relayWrite is relaySlot for pair i of a batch, as a Put: the pair's
// status and version come back from the owner.
func (s *Server) relayWrite(w *writeSet, i int) bool {
	req, resp := wire.GetRequest(), wire.GetResponse()
	defer wire.PutRequest(req)
	defer wire.PutResponse(resp)
	req.Op, req.Table, req.TraceID, req.DeadlineAt = wire.OpPut, w.table, w.tid, w.dlAt
	req.Key, req.Value = w.pairs[i].Key, w.pairs[i].Value
	if !s.relaySlot(req, resp) {
		return false // remapped: owned after all
	}
	if w.status[i], w.pairs[i].Version = resp.Status, resp.Version; resp.Status == wire.StatusOK {
		w.status[i] = statusDone
	}
	return true
}

// replicateAll is the AA+SC orderer and replicate stage. Holding its keys
// (lockKeys), the owner versions the write set from its Lamport clock and
// applies it at every peer replica concurrently, one frame each stamped
// with m's epoch — the fan-out rides the pipelined peer connections, so
// the write-all costs one round-trip to the slowest peer, not the sum —
// and then locally, in one frame: its own copy, which its reads return, is
// never ahead of a peer's, and a write-all that fails part-way leaves it
// as it was. It always waits for every peer (in-flight frames alias the
// client request's buffers); the first error wins, and a dead peer fails
// the write. A replica that already holds a newer version of a key — the
// unacked write-all of an owner that died, which this owner's clock never
// saw — answers with it; that pair alone is versioned above it and
// written to all again, so no replica keeps the older value over an acked
// one (versioned).
func (s *Server) replicateAll(m *topology.Map, shard topology.Shard, w *writeSet) error {
	s.slots.lockKeys(w)
	defer s.slots.unlockKeys(w)
	calls := make([]peerCall, 0, len(shard.Replicas)-1)
	fold := func(resp *wire.Response) error { return w.took(resp, false) }
	return s.versioned(w, func() error {
		calls = calls[:0]
		for _, n := range shard.Replicas {
			if n.ID == s.cfg.NodeID {
				continue
			}
			fwd := wire.GetRequest()
			if w.encode(fwd, frameRepl, wire.StatusOK) == 0 {
				wire.PutRequest(fwd) // a batch whose every pair was relayed
				break
			}
			fwd.Epoch = m.Epoch
			ctlReplicateAll.Inc()
			calls = append(calls, s.send(n.ControletAddr, fwd))
		}
		var firstErr error
		for i := range calls {
			if err := calls[i].wait(fold); err != nil && firstErr == nil {
				firstErr = downstream{"replicate", err}
			}
		}
		if firstErr != nil {
			return firstErr
		}
		s.raced(w) // what a peer holds newer is not applied here
		return s.applyLocal(w, false)
	})
}

// writeStripes is how many stripes lockKeys spreads the key space over.
const writeStripes = 4096

var stripeSeed = maphash.MakeSeed()

// lockKeys takes, in stripe order, the stripe locks of w's pending pairs.
// An owner's writes of one key run one after another, each versioned
// after the one before it was applied everywhere, so none overtakes
// another at a replica: only a version this owner never drew can shadow a
// pair. Stripe order keeps two sets from waiting on each other, and a
// holder waits only for its peers' answers, which take no stripe lock.
func (l *slotTable) lockKeys(w *writeSet) {
	w.stripes = w.stripes[:0]
	for i := range w.pairs {
		if w.status[i] == wire.StatusOK {
			w.stripes = append(w.stripes, uint16(maphash.Bytes(stripeSeed, w.pairs[i].Key)%writeStripes))
		}
	}
	slices.Sort(w.stripes)
	w.stripes = slices.Compact(w.stripes)
	for _, st := range w.stripes {
		l.keys[st].Lock()
	}
}

func (l *slotTable) unlockKeys(w *writeSet) {
	for _, st := range w.stripes {
		l.keys[st].Unlock()
	}
}

// ownerRead is the AA+SC strong read: one local read at the key's slot
// owner. The owner's copy is the linearizable answer with no per-key
// exclusion: it changes only at the owner's local apply, which follows
// every peer's, so each write takes effect there, and a strong read is one
// atomic datalet read of it. A GET on a slot another replica owns is
// relayed there once; a batch is read key by key, each relayed or served
// as a GET, and merged back into one frame.
func (s *Server) ownerRead(req *wire.Request, resp *wire.Response) {
	if req.Op == wire.OpGet {
		if !s.relaySlot(req, resp) {
			s.ownerGet(req, resp)
		}
		return
	}
	kreq := wire.GetRequest()
	kresp := wire.GetResponse()
	defer wire.PutRequest(kreq)
	defer wire.PutResponse(kresp)
	resp.Status = wire.StatusOK
	for i := range req.Pairs {
		*kreq = wire.Request{Op: wire.OpGet, Table: req.Table, Key: req.Pairs[i].Key,
			Level: req.Level, TraceID: req.TraceID, DeadlineAt: req.DeadlineAt}
		kresp.Reset()
		if !s.relaySlot(kreq, kresp) {
			s.ownerGet(kreq, kresp)
		}
		kv := wire.KV{}
		if kresp.Status == wire.StatusOK {
			kv = wire.KV{Value: append([]byte(nil), kresp.Value...), Version: kresp.Version}
		}
		resp.Pairs = append(resp.Pairs, kv)
		resp.Statuses = append(resp.Statuses, kresp.Status)
	}
}

// ownerGet reads key locally as its slot's owner, by the owner's fence
// instant. It counts as in flight, like a write: a handoff barrier's
// Quiesce waits it out, so it cannot reach the datalet after the next
// owner's first write-all has and return a value that owner, which
// applies last, does not serve yet.
func (s *Server) ownerGet(req *wire.Request, resp *wire.Response) {
	s.inflight.RLock()
	defer s.inflight.RUnlock()
	if err := s.slots.authorize(topology.SlotOf(req.Key)); err != nil {
		failWrite(resp, err)
		return
	}
	dl := req.DeadlineAt
	req.DeadlineAt = s.slots.fenceBy(dl)
	s.localCall(req, resp)
	req.DeadlineAt = dl
}
