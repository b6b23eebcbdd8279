package controlet

import (
	"bespokv/internal/clock"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// policy is everything a mode decides about the data path beyond its
// topology.Route row, which clients read too (what a default-level read
// gets comes from there). Serve picks one from the table below; the write
// pipeline (write.go) and the read router consult the two and never branch
// on the mode.
type policy struct {
	// headOnly: only the shard head accepts client writes, everyone else
	// redirects there (master-slave). Otherwise any replica does.
	headOnly bool
	// fenced: stop acking writes and owner reads once coordinator contact
	// is lost for FenceTimeout.
	fenced bool
	// readOwner names the replica that serves strong reads; nil means any
	// replica does — the key's slot owner when bySlot is set, best effort
	// otherwise.
	readOwner func(topology.Shard) topology.Node
	// bySlot: order, apply, replicate and read each key at the owner of its
	// slot under the installed map (aasc.go).
	bySlot bool
	// order versions the write set and applies it to the local datalet
	// (nil: replicate does both).
	order func(*Server, *writeSet) error
	// replicate is what the mode owes the other replicas before the ack
	// (nil: nothing).
	replicate func(*Server, *topology.Map, topology.Shard, *writeSet) error
	// start brings up the service the mode needs (nil: none).
	start func(*Server) error
}

// policies is the four pre-built modes of §IV and Appendix C, one row
// each. Ack point: after replicate returns.
var policies = map[topology.Mode]policy{
	// MS+SC: chain replication; the head acks after the tail has.
	{Topology: topology.MS, Consistency: topology.Strong}: {
		headOnly: true, fenced: true, readOwner: topology.Shard.ReadTail,
		order: (*Server).orderLamport, replicate: (*Server).replicateChain,
	},
	// MS+EC: the master acks once the write is queued for every slave;
	// it holds the freshest state, so it owns strong reads.
	{Topology: topology.MS, Consistency: topology.Eventual}: {
		headOnly: true, fenced: true, readOwner: topology.Shard.Head,
		order: (*Server).orderLamport, replicate: (*Server).replicateAsync, start: (*Server).startPropagator,
	},
	// AA+SC: the key's slot owner writes all replicas.
	{Topology: topology.AA, Consistency: topology.Strong}: {
		fenced: true, bySlot: true,
		replicate: (*Server).replicateAll, start: (*Server).startSlots,
	},
	// AA+EC: the shared log orders the write and carries it to the other
	// replicas, so there is nothing left to replicate before the ack.
	{Topology: topology.AA, Consistency: topology.Eventual}: {
		order: (*Server).orderLog, start: (*Server).startLog,
	},
}

// dispatch routes one data-path request.
func (s *Server) dispatch(req *wire.Request, resp *wire.Response) {
	switch req.Op {
	case wire.OpNop:
		resp.Status = wire.StatusOK
	case wire.OpPut, wire.OpDel, wire.OpMPut:
		if !s.routeForeign(req, resp) {
			s.handleWrite(req, resp)
		}
	case wire.OpGet, wire.OpMGet:
		if !s.routeForeign(req, resp) {
			s.handleRead(req, resp)
		}
	case wire.OpScan:
		// Scans serve locally, like eventual reads: the client library
		// fans sub-ranges out to the right shards.
		s.localCall(req, resp)
	case wire.OpCreateTable, wire.OpDeleteTable:
		s.handleTableOp(req, resp)
	case wire.OpChainPut, wire.OpChainDel, wire.OpChainMPut:
		s.handleChain(req, resp)
	case wire.OpReplPut, wire.OpReplDel, wire.OpReplMPut:
		s.handleRepl(req, resp)
	case wire.OpHandoff:
		// A peer's old-mode controlet handed us a client write during a
		// transition: treat it as a fresh client write in our mode.
		inner := *req
		inner.Op = wire.Op(req.Limit) // original op is carried in Limit
		inner.Limit = 0
		s.handleWrite(&inner, resp)
	default:
		resp.Status = wire.StatusErr
		resp.Err = "controlet: unsupported op " + req.Op.String()
	}
}

// refuse answers a request this node must not serve right now; the client
// backs off, refreshes its map and retries.
func refuse(resp *wire.Response, why string) {
	resp.Status = wire.StatusUnavailable
	resp.Err = why
}

// putCopy recycles a pooled request that was filled by struct copy
// (*fwd = *req). The copy shares req's Pairs backing array, and req — a
// server connection's scratch request — keeps decoding frames into it;
// PutRequest keeps a request's Pairs array for its next user, so without
// the detach every such call parked one more alias of a live connection's
// array in the pool, and two later batch writes could be handed the same
// array (seen as chain frames carrying another batch's pairs, or none).
func putCopy(fwd *wire.Request) {
	fwd.Pairs = nil
	wire.PutRequest(fwd)
}

// localCall forwards a request verbatim to the local datalet, handing it
// whatever remains of the propagated deadline budget. It sends req itself:
// the send rewrites only its ID and Deadline, which are put back after.
func (s *Server) localCall(req *wire.Request, resp *wire.Response) {
	id, deadline := req.ID, req.Deadline
	if !req.RestampDeadline(clock.Mono) {
		s.admit.Expired.Inc()
		resp.Status = wire.StatusOverloaded
		resp.Err = "controlet: deadline expired"
		return
	}
	err := s.local.Do(req, resp)
	req.ID, req.Deadline = id, deadline
	if err != nil {
		resp.Reset()
		refuse(resp, "local datalet: "+err.Error())
	}
}

// handleRead is the client-facing read router for Get and MGet; the
// per-request consistency level (§IV-C) picks between a local serve and
// the policy's strong-read owner. A batch stands or falls as one unit:
// the sender bucketed every key in it to this shard.
func (s *Server) handleRead(req *wire.Request, resp *wire.Response) {
	m := s.Map()
	shard, pos := s.myShard(m)
	strong := req.Level.Strong(s.cfg.Mode.Route().Strong)
	switch {
	case m == nil || m.Transition != nil:
		// Standalone controlets (no map installed) serve locally. During a
		// transition reads stay on the old replicas and observe EC,
		// exactly as §V-A describes.
		s.localCall(req, resp)
	case pos < 0:
		// A node failed out of the map (or drained away) must not serve
		// even eventual reads: its state stops being repaired, so its
		// answers can be arbitrarily stale rather than merely eventually
		// consistent.
		refuse(resp, "controlet: node not in current map")
	case !strong:
		s.localCall(req, resp)
	case s.pol.bySlot:
		s.ownerRead(req, resp)
	case s.pol.readOwner == nil:
		// AA+EC: best effort, serve locally (the paper's AA+EC offers no
		// strong reads either).
		s.localCall(req, resp)
	default:
		// Recovering tails don't serve reads (ReadTail skips them).
		if owner := s.pol.readOwner(shard); owner.ID != s.cfg.NodeID {
			s.toOwner(owner.ControletAddr, req, resp)
			return
		}
		// A fenced owner must not serve strong reads: the coordinator may
		// have already promoted a new chain that has acked writes this
		// isolated node never saw.
		if s.fenced() {
			ctlFencedRejects.Inc()
			refuse(resp, "controlet: fenced (no coordinator contact)")
			return
		}
		s.localCall(req, resp)
	}
}

func (s *Server) handleTableOp(req *wire.Request, resp *wire.Response) {
	// Table DDL fans out to every replica's datalet synchronously; it is
	// rare and idempotent.
	m := s.Map()
	shard, pos := s.myShard(m)
	if m == nil || pos < 0 {
		s.localCall(req, resp)
		return
	}
	for _, n := range shard.Replicas {
		if n.ID == s.cfg.NodeID {
			if err := s.ddlLocal(req); err != nil {
				resp.Status = wire.StatusErr
				resp.Err = err.Error()
				return
			}
			continue
		}
		fwd := wire.GetRequest()
		*fwd = *req
		peerResp := wire.GetResponse()
		err := s.peerDatalet(n).Do(fwd, peerResp)
		putCopy(fwd)
		wire.PutResponse(peerResp)
		if err != nil {
			refuse(resp, err.Error())
			return
		}
	}
	resp.Status = wire.StatusOK
}

func (s *Server) ddlLocal(req *wire.Request) error {
	fwd := wire.GetRequest()
	*fwd = *req
	resp := wire.GetResponse()
	err := s.local.Do(fwd, resp)
	putCopy(fwd)
	if err == nil {
		err = resp.ErrValue()
	}
	wire.PutResponse(resp)
	return err
}

// handleRepl applies a repl record from a peer: MS+EC propagation, or the
// AA+SC write-all, whose batch form is one OpReplMPut applied in one
// datalet frame. A propagated record carries no deadline and no epoch —
// it is post-ack (the master already answered its client), so dropping it
// would lose an acknowledged write. A write-all frame carries its owner's
// map epoch and fence instant, and is refused, not applied, when it was
// stamped before a pair's slot last changed owner here, in an epoch this
// replica has not installed yet, or its budget is spent: the slot may have
// passed to another controlet (aasc.go). The answer carries, per pair, the
// version the key holds here, which is above the pair's when a newer write
// shadowed it.
func (s *Server) handleRepl(req *wire.Request, resp *wire.Response) {
	w := decodeWrite(req)
	defer w.release()
	if s.slots != nil && req.Epoch != 0 {
		v := s.slots.view.Load()
		for i := range w.pairs {
			if v.m == nil || req.Epoch > v.m.Epoch || req.Epoch < v.moved[topology.SlotOf(w.pairs[i].Key)] {
				resp.Status = wire.StatusWrongEpoch
				resp.Err = "controlet: write-all from another epoch than its slot's owner's here"
				resp.Epoch = s.epoch()
				return
			}
		}
	}
	for i := range w.pairs {
		s.observeVersion(w.pairs[i].Version)
	}
	if err := s.applyLocal(w, false); err != nil {
		failWrite(resp, err)
		return
	}
	for i := range w.pairs {
		w.pairs[i].Version = max(w.pairs[i].Version, w.won[i])
	}
	w.ack(resp)
}
