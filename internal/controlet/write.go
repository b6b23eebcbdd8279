package controlet

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"bespokv/internal/clock"
	"bespokv/internal/datalet"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// The write path. Every client write — a Put, a Del, an N-pair MPut frame,
// a transition handoff — becomes one writeSet and walks the same stages:
//
//	admit → route → order + apply-local → replicate → mirror → ack
//
// Only order and replicate differ between modes, and they are two funcs
// of the mode's policy (modes.go). Guards, the head redirect, deadline
// restamping, the migration mirror and the error→status mapping are
// written once, here, at the stage they belong to; a single-key op is a
// write set of one pair, and the replica side of replication (handleChain,
// handleRepl) decodes its frames into the same type.

// writeSet is the pairs of one write frame, in one shape whatever the
// frame's arity.
type writeSet struct {
	// batch is set when the frame was a multi-op: forwarded frames use the
	// multi wire ops and the answer carries per-pair statuses.
	batch bool
	del   bool
	table string
	tid   uint64 // trace ID
	dlAt  int64  // armed deadline instant, 0 = none
	// pairs alias the serving connection's request. Version is carried by
	// the frame (internal hops) or filled in by the orderer.
	pairs []wire.KV
	// status is each pair's outcome so far, index-aligned with pairs;
	// later stages skip pairs an earlier one failed.
	status []wire.Status
	// won is, per pair, the highest version a replica that took it
	// reported governing the key there: the pair's own, or one that
	// shadowed it.
	won []uint64
	one [1]wire.KV // backs pairs of a single-key frame
	// recs backs the shared-log records of an AA+EC write (orderLog).
	recs [][]byte
	// props backs the propagation records of an MS+EC write
	// (replicateAsync).
	props []propRecord
	// stripes is the key stripes an AA+SC owner holds for it (lockKeys).
	stripes []uint16
}

// errNoTable is applyLocal's refusal of a write to a table the local
// datalet does not have.
var errNoTable = errors.New("local datalet")

// Statuses a pair has only on its way through the write path (versioned):
// statusRetry marks a pair that lost a version race and goes into the next
// attempt; statusDone one that an earlier attempt, or its slot's owner
// (admitWrite), has finished.
const (
	statusRetry = wire.Status(0xff)
	statusDone  = wire.Status(0xfe)
)

var writePool = sync.Pool{New: func() any { return new(writeSet) }}

// decodeWrite is the one place a wire frame becomes a write set; the
// caller releases it.
func decodeWrite(req *wire.Request) *writeSet {
	w := writePool.Get().(*writeSet)
	w.table, w.tid, w.dlAt = req.Table, req.TraceID, req.DeadlineAt
	switch req.Op {
	case wire.OpMPut, wire.OpChainMPut, wire.OpReplMPut:
		w.batch, w.pairs = true, req.Pairs
	default:
		w.del = req.Op == wire.OpDel || req.Op == wire.OpChainDel || req.Op == wire.OpReplDel
		w.one[0] = wire.KV{Key: req.Key, Value: req.Value, Version: req.Version}
		w.pairs = w.one[:]
	}
	w.resetStatus()
	return w
}

// resetStatus gives every pair a fresh StatusOK and no version seen.
func (w *writeSet) resetStatus() {
	w.status, w.won = zeroed(w.status, len(w.pairs)), zeroed(w.won, len(w.pairs))
}

// zeroed returns n zero elements, in s's array when it has room.
func zeroed[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (w *writeSet) release() {
	clear(w.recs)
	clear(w.props)
	*w = writeSet{status: w.status[:0], won: w.won[:0], recs: w.recs[:0], props: w.props[:0], stripes: w.stripes[:0]}
	writePool.Put(w)
}

// took folds a replica's answer to a frame of w's pending pairs into won.
// A pair the replica did not take fails the frame — a replica cannot ack
// what it did not store — unless own is set (the orderer's own apply),
// where that pair alone fails.
func (w *writeSet) took(resp *wire.Response, own bool) error {
	j := 0
	for i := range w.pairs {
		if w.status[i] != wire.StatusOK {
			continue
		}
		st, winner := resp.Status, resp.Version
		if w.batch {
			st, winner = wire.StatusErr, 0
			if j < len(resp.Statuses) && j < len(resp.Pairs) {
				st, winner = resp.Statuses[j], resp.Pairs[j].Version
			}
			j++
		}
		switch {
		case st == wire.StatusOK || st == wire.StatusNotFound: // a Del's NotFound is a success
			w.won[i] = max(w.won[i], winner)
		case own:
			w.status[i] = wire.StatusErr
		default:
			return fmt.Errorf("controlet: replica rejected a pair: %s", st)
		}
	}
	return nil
}

// frameOps is the wire op of each kind of forwarded frame, by arity.
var frameOps = [...]struct{ put, del, multi wire.Op }{
	frameLocal: {wire.OpPut, wire.OpDel, wire.OpMPut},
	frameChain: {wire.OpChainPut, wire.OpChainDel, wire.OpChainMPut},
	frameRepl:  {wire.OpReplPut, wire.OpReplDel, wire.OpReplMPut},
}

const (
	frameLocal = iota // to the local datalet
	frameChain        // down the replication chain
	frameRepl         // to a peer replica, version already decided
)

// maxFramePairs and maxFrameBytes cap the records, and their bytes, that
// one frame a controlet assembles from queued writes carries, well inside
// an rpc frame: an AA+EC Append (the combiner joins appenders while both
// hold, orderLog splits a batch larger than either), an MS+EC propagation
// frame (cutFrame) and the AA+EC applier's OpMPut to the local datalet
// (maxFramePairs only). A record above them goes alone.
const (
	maxFramePairs = 128
	maxFrameBytes = 4 << 20
)

// encode is the one place a write set becomes a wire frame: the pairs
// whose status is want go into fwd (a fresh pooled request) as kind's
// single-key op when the set is a single-key write and as its multi op
// when it arrived as a batch. It returns how many pairs were framed.
func (w *writeSet) encode(fwd *wire.Request, kind int, want wire.Status) int {
	ops := frameOps[kind]
	fwd.Table, fwd.TraceID, fwd.DeadlineAt = w.table, w.tid, w.dlAt
	if !w.batch {
		if w.status[0] != want {
			return 0
		}
		if fwd.Op = ops.put; w.del {
			fwd.Op = ops.del
		}
		fwd.Key, fwd.Value, fwd.Version = w.pairs[0].Key, w.pairs[0].Value, w.pairs[0].Version
		return 1
	}
	fwd.Op = ops.multi
	if cap(fwd.Pairs) < len(w.pairs) {
		// A pooled request rarely comes with an array (every struct-copy
		// user drops it, see putCopy): size it once, not by doubling.
		fwd.Pairs = make([]wire.KV, 0, len(w.pairs))
	}
	for i := range w.pairs {
		if w.status[i] == want {
			fwd.Pairs = append(fwd.Pairs, w.pairs[i])
		}
	}
	return len(fwd.Pairs)
}

// ack answers the client: one status and version for a single-key write,
// index-aligned statuses and winner versions for a batch.
func (w *writeSet) ack(resp *wire.Response) {
	resp.Status = wire.StatusOK
	if !w.batch {
		resp.Version = w.pairs[0].Version
		return
	}
	for i := range w.pairs {
		kv := wire.KV{}
		if w.status[i] == wire.StatusOK {
			kv.Version = w.pairs[i].Version
		}
		resp.Pairs = append(resp.Pairs, kv)
	}
	resp.Statuses = append(resp.Statuses[:0], w.status...)
}

// handleWrite is the client-facing write path: Put, Del, MPut, and the
// writes an old-mode controlet hands off during a transition.
func (s *Server) handleWrite(req *wire.Request, resp *wire.Response) {
	// An AA+SC write on a slot another replica owns is relayed there
	// before it counts as in flight here: the owner's handoff barrier may
	// be quiescing this node, and must not wait for it.
	if s.pol.bySlot && req.Op != wire.OpMPut && s.relaySlot(req, resp) {
		return
	}
	s.inflight.RLock()
	defer s.inflight.RUnlock()
	w := decodeWrite(req)
	defer w.release()
	m := s.Map()
	shard, pos := s.myShard(m)

	// --- admit ---
	// A coordinator-attached controlet without a map yet must not ack
	// anything: it cannot know its replica set, and a "standalone" apply
	// would be an ack no other replica ever sees (a freshly booted
	// new-mode controlet can receive transition handoffs before its first
	// map push lands). Standalone mode remains for coordinator-less setups.
	if m == nil && s.cfg.CoordinatorAddr != "" {
		refuse(resp, "controlet: no cluster map yet")
		return
	}
	// Mid-transition, old-mode controlets forward client writes to their
	// new-mode replacement (§V): zero downtime, and the new controlet
	// replicates under the new mode.
	if s.draining.Load() || (m != nil && m.Transition != nil && pos >= 0) {
		peer, ok := s.transitionPeer(m)
		switch {
		case w.batch:
			// Deliberate difference: a single write is handed off, a batch
			// is bounced — the client retries after the transition's epoch
			// bump and re-buckets its keys under the new map.
			refuse(resp, "controlet: transition in progress")
			return
		case ok && peer.ID != s.cfg.NodeID:
			fwd := *req
			fwd.Op = wire.OpHandoff
			fwd.Limit = uint32(req.Op)                  // the original op rides in Limit
			_ = s.relay(peer.ControletAddr, &fwd, resp) // the refusal is the client's answer
			return
		case s.draining.Load():
			// Draining but the transition map hasn't landed yet, so the
			// forward target is unknown. Acking through the old path would
			// race the drain (the ack's propagation would never be waited
			// for); make the client retry instead.
			refuse(resp, "controlet: transition in progress")
			return
		}
	}
	if m != nil && pos < 0 {
		// We were failed out of the map (or never in it).
		refuse(resp, "controlet: node not in current map")
		return
	}
	// Migration cutover barrier: once the mover's barrier is up, writes to
	// keys that are moving away must not be acknowledged here — the delta
	// queue is draining and the epoch bump is imminent. The client backs
	// off, refreshes its map and lands on the new owner.
	if mig := s.mig.Load(); mig != nil {
		for i := range w.pairs {
			if mig.mover.Blocks(w.pairs[i].Key) {
				refuse(resp, "controlet: shard migration cutover in progress")
				return
			}
		}
	}
	// Self-fencing: a node out of coordinator contact cannot know whether
	// it is still in the chain or still owns its slots — the coordinator
	// may be promoting its replacement right now, and an ack issued here
	// would exist only on the deposed replicas. AA+EC is unfenced: its acks
	// are sequenced through the shared log.
	if s.pol.fenced && s.fenced() {
		ctlFencedRejects.Inc()
		refuse(resp, "controlet: fenced (no coordinator contact)")
		return
	}

	// --- route ---
	if s.pol.headOnly && m != nil && pos != 0 {
		s.toOwner(shard.Head().ControletAddr, req, resp)
		return
	}

	// --- order + apply-local → replicate → mirror ---
	if err := s.commit(m, shard, w); err != nil {
		failWrite(resp, err)
		return
	}

	// --- ack ---
	w.ack(resp)
}

// commit takes an admitted write set from unordered to acknowledgeable:
// the policy's orderer versions it and applies it locally, the policy's
// replicate func does whatever the mode owes the other replicas before an
// ack, and what survived both is mirrored to an active migration.
func (s *Server) commit(m *topology.Map, shard topology.Shard, w *writeSet) error {
	if len(w.pairs) == 0 {
		return nil // an empty batch: acked with no statuses, nothing to order
	}
	if s.pol.bySlot {
		if err := s.admitWrite(w); err != nil {
			return err
		}
	}
	if s.pol.order != nil {
		if err := s.pol.order(s, w); err != nil {
			return err
		}
	}
	// A replica that cannot take the write fails it (a downstream error);
	// the coordinator repairs the replica set and the client retries
	// against the new topology (LWW re-apply is idempotent). A downstream
	// shed keeps its overload class so the client backs off instead of
	// hammering the repaired set. With no map there are no peers.
	if s.pol.replicate != nil {
		if err := s.pol.replicate(s, m, shard, w); err != nil {
			return err
		}
	}
	// Dual-apply what is about to be acknowledged to its post-cutover
	// owner. The migration is loaded here, not at admit: a mover armed
	// while this write was in flight starts its snapshot after arming, and
	// only the mirror covers a key the scan has already passed. This runs
	// under the inflight read lock, so a cutover (which takes the write
	// side) cannot drain the mover's queue before it.
	if mig := s.mig.Load(); mig != nil {
		for i := range w.pairs {
			if w.status[i] == wire.StatusOK {
				mig.mover.Mirror(w.del, w.table, w.pairs[i].Key, w.pairs[i].Value, w.pairs[i].Version)
			}
		}
	}
	return nil
}

// orderLamport is the MS orderer: the head versions the write from its
// Lamport clock and applies it locally. A pair the engine rejects gets
// StatusErr and is neither replicated nor acked; one the datalet holds at
// a newer version — possible right after a transition out of AA+EC, whose
// log-derived versions live above the Lamport range — is versioned above
// it and applied again, so no acknowledged write is ever silently
// shadowed by pre-transition history.
func (s *Server) orderLamport(w *writeSet) error {
	return s.versioned(w, func() error { return s.applyLocal(w, true) })
}

// versioned draws versions for w's pending pairs from the Lamport clock
// and runs apply, then again for the pairs some replica reported holding
// at a newer version, each above it, at most versionAttempts times. A
// pair still shadowed then fails alone; a single-key write fails whole.
func (s *Server) versioned(w *writeSet, apply func() error) error {
	for attempt := 1; ; attempt++ {
		for i := range w.pairs {
			if w.status[i] == wire.StatusOK {
				w.pairs[i].Version = s.nextVersion()
			}
		}
		if err := apply(); err != nil {
			return err
		}
		if s.raced(w); !slices.Contains(w.status, statusRetry) || attempt == versionAttempts {
			break
		}
		for i, st := range w.status {
			switch st {
			case wire.StatusOK:
				w.status[i] = statusDone
			case statusRetry:
				w.status[i] = wire.StatusOK
			}
		}
	}
	for i, st := range w.status {
		switch {
		case st == statusDone:
			w.status[i] = wire.StatusOK
		case st == statusRetry && !w.batch:
			return errVersionRaces
		case st == statusRetry:
			w.status[i] = wire.StatusErr
		}
	}
	return nil
}

// versionAttempts bounds the applies of one write set (versioned).
const versionAttempts = 8

// raced moves each pending pair a replica holds at a newer version to
// statusRetry, observing that version.
func (s *Server) raced(w *writeSet) {
	for i := range w.pairs {
		if w.status[i] == wire.StatusOK && w.won[i] > w.pairs[i].Version {
			s.observeVersion(w.won[i])
			w.status[i] = statusRetry
		}
	}
}

// applyLocal applies w's pending pairs to the local datalet in one frame
// and folds the answer into w (took; own as there). Pairs carry their
// versions; losing the LWW race is recorded in w.won. With no pair
// pending nothing is sent. The datalet is handed the shrinking remainder
// of w's deadline; a spent budget fails the write before it touches the
// engine. The error return is a failure of the whole frame.
func (s *Server) applyLocal(w *writeSet, own bool) error {
	lreq := wire.GetRequest()
	lresp := wire.GetResponse()
	defer wire.PutRequest(lreq)
	defer wire.PutResponse(lresp)
	if w.encode(lreq, frameLocal, wire.StatusOK) == 0 {
		return nil
	}
	if !lreq.RestampDeadline(clock.Mono) {
		s.admit.Expired.Inc()
		return errDeadlineSpent
	}
	if err := s.local.Do(lreq, lresp); err != nil {
		return err
	}
	if err := peerErrValue(lresp); err != nil {
		return err
	}
	if lresp.Status == wire.StatusNotFound && !w.del {
		// Only a Del may find nothing; for a write it means the table
		// does not exist, and nothing was stored.
		return fmt.Errorf("%w: %s", errNoTable, lresp.Err)
	}
	return w.took(lresp, own)
}

var errVersionRaces = errors.New("controlet: write kept losing version races")

// peerCall is one frame in flight toward a peer controlet on a pipelined
// connection: send launches it, the caller overlaps its own work with the
// network hop, wait collects the answer. The zero value waits as an
// immediate success (a chain tail has nobody to forward to).
type peerCall struct {
	fwd   *wire.Request // nil when the frame never left
	presp *wire.Response
	p     datalet.Pending
	err   error // why the frame never left
}

// send launches fwd, a pooled request it takes over, toward a peer. The
// hop inherits whatever remains of the client's deadline budget; a budget
// already spent fails the send before it leaves this node (the client has
// given up on the write anyway).
func (s *Server) send(addr string, fwd *wire.Request) peerCall {
	if !fwd.RestampDeadline(clock.Mono) {
		s.admit.Expired.Inc()
		wire.PutRequest(fwd)
		return peerCall{err: errDeadlineSpent}
	}
	c := peerCall{fwd: fwd, presp: wire.GetResponse()}
	c.p = s.peer(addr).Start(fwd, c.presp)
	return c
}

// wait blocks until the peer's answer — for a chain forward, proof that
// every node through the tail applied the write — hands a successful one
// to fold, if any, and recycles the pooled messages. A peer's Overloaded
// comes back as errShed.
func (c *peerCall) wait(fold func(*wire.Response) error) error {
	if c.fwd == nil {
		return c.err
	}
	err := c.p.Wait()
	if err == nil {
		err = peerErrValue(c.presp)
	}
	if err == nil && fold != nil {
		err = fold(c.presp)
	}
	wire.PutRequest(c.fwd)
	wire.PutResponse(c.presp)
	return err
}
