package controlet

import (
	"errors"
	"time"

	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// dispatch routes one data-path request through the mode-specific logic.
func (s *Server) dispatch(req *wire.Request, resp *wire.Response) {
	switch req.Op {
	case wire.OpNop:
		resp.Status = wire.StatusOK
	case wire.OpPut, wire.OpDel:
		if s.routeForeign(req, resp) {
			return
		}
		s.handleWrite(req, resp)
	case wire.OpGet:
		if s.routeForeign(req, resp) {
			return
		}
		s.handleGet(req, resp)
	case wire.OpScan:
		// Scans serve locally, like eventual reads: the client library
		// fans sub-ranges out to the right shards.
		s.localCall(req, resp)
	case wire.OpCreateTable, wire.OpDeleteTable:
		s.handleTableOp(req, resp)
	case wire.OpMGet:
		s.handleMGet(req, resp)
	case wire.OpMPut:
		s.handleMPut(req, resp)
	case wire.OpChainMPut:
		s.handleChainMPut(req, resp)
	case wire.OpChainPut, wire.OpChainDel:
		s.handleChain(req, resp)
	case wire.OpReplPut, wire.OpReplDel:
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
// whatever remains of the propagated deadline budget.
func (s *Server) localCall(req *wire.Request, resp *wire.Response) {
	fwd := wire.GetRequest()
	*fwd = *req
	if !fwd.RestampDeadline(time.Now()) {
		putCopy(fwd)
		ctlDeadlineExpired.Inc()
		resp.Status = wire.StatusOverloaded
		resp.Err = "controlet: deadline expired"
		return
	}
	err := s.local.Do(fwd, resp)
	putCopy(fwd)
	if err != nil {
		resp.Reset()
		resp.ID = req.ID
		resp.Status = wire.StatusUnavailable
		resp.Err = "local datalet: " + err.Error()
	}
}

// writeLocalAssigned assigns a fresh version, applies the write locally,
// and verifies it won the LWW race. If the datalet reports a newer
// governing version — possible right after a transition out of AA+EC,
// whose log-derived versions live above the Lamport range — the clock
// jumps past it and the write retries, so no acknowledged write is ever
// silently shadowed by pre-transition history.
// dlAt carries the client's armed deadline instant (0 = none); the local
// datalet is handed the shrinking remainder, and a spent budget fails the
// write with errShed before touching the engine.
func (s *Server) writeLocalAssigned(op wire.Op, table string, key, value []byte, tid uint64, dlAt int64) (uint64, error) {
	req := wire.GetRequest()
	resp := wire.GetResponse()
	defer wire.PutRequest(req)
	defer wire.PutResponse(resp)
	req.Op = op
	req.Table = table
	req.Key = key
	req.Value = value
	req.TraceID = tid
	for attempt := 0; attempt < 8; attempt++ {
		req.DeadlineAt = dlAt
		if !req.RestampDeadline(time.Now()) {
			ctlDeadlineExpired.Inc()
			return 0, errDeadlineSpent
		}
		version := s.nextVersion()
		req.Version = version
		if err := s.local.Do(req, resp); err != nil {
			return 0, err
		}
		if resp.Status == wire.StatusErr || resp.Status == wire.StatusUnavailable ||
			resp.Status == wire.StatusOverloaded {
			return 0, peerErrValue(resp)
		}
		if resp.Version <= version {
			return version, nil
		}
		s.observeVersion(resp.Version)
	}
	return 0, errors.New("controlet: local write kept losing version races")
}

// applyLocal writes to the local datalet with an explicit version. dlAt is
// the propagated deadline instant for pre-ack applies (chain hops); the
// post-ack paths — async repl records, shared-log replica applies — pass 0,
// because an acknowledged write must reach every replica no matter how
// late it runs.
func (s *Server) applyLocal(op wire.Op, table string, key, value []byte, version, tid uint64, dlAt int64) error {
	req := wire.GetRequest()
	resp := wire.GetResponse()
	defer wire.PutRequest(req)
	defer wire.PutResponse(resp)
	req.Op = op
	req.Table = table
	req.Key = key
	req.Value = value
	req.Version = version
	req.TraceID = tid
	req.DeadlineAt = dlAt
	if !req.RestampDeadline(time.Now()) {
		ctlDeadlineExpired.Inc()
		return errDeadlineSpent
	}
	if err := s.local.Do(req, resp); err != nil {
		return err
	}
	if resp.Status == wire.StatusErr || resp.Status == wire.StatusUnavailable ||
		resp.Status == wire.StatusOverloaded {
		return peerErrValue(resp)
	}
	return nil
}

// handleWrite is the client-facing Put/Del path.
func (s *Server) handleWrite(req *wire.Request, resp *wire.Response) {
	s.inflight.RLock()
	defer s.inflight.RUnlock()
	m := s.Map()

	// A coordinator-attached controlet without a map yet must not ack
	// anything: it cannot know its replica set, and a "standalone" apply
	// would be an ack no other replica ever sees (a freshly booted
	// new-mode controlet can receive transition handoffs before its
	// first map push lands). Standalone mode remains for
	// coordinator-less setups.
	if m == nil && s.cfg.CoordinatorAddr != "" {
		resp.Status = wire.StatusUnavailable
		resp.Err = "controlet: no cluster map yet"
		return
	}
	shard, pos := s.myShard(m)

	// Mid-transition, old-mode controlets forward client writes to their
	// new-mode replacement (§V): zero downtime, and the new controlet
	// replicates under the new mode.
	if s.draining.Load() || (m != nil && m.Transition != nil && pos >= 0) {
		if peer, ok := s.transitionPeer(m); ok && peer.ID != s.cfg.NodeID {
			s.forwardWrite(peer, req, resp)
			return
		}
		if s.draining.Load() {
			// Draining but the transition map hasn't landed yet, so the
			// forward target is unknown. Acking through the old path
			// would race the drain (the ack's propagation would never
			// be waited for); make the client retry instead.
			resp.Status = wire.StatusUnavailable
			resp.Err = "controlet: transition in progress"
			return
		}
	}

	if m != nil && pos < 0 {
		// We were failed out of the map (or never in it).
		resp.Status = wire.StatusUnavailable
		resp.Err = "controlet: node not in current map"
		return
	}

	// Migration cutover barrier: once the mover's barrier is up, writes to
	// keys that are moving away must not be acknowledged here — the delta
	// queue is draining and the epoch bump is imminent. The client backs
	// off, refreshes its map and lands on the new owner.
	if ms := s.migration(); ms != nil && ms.mover.Blocks(req.Key) {
		resp.Status = wire.StatusUnavailable
		resp.Err = "controlet: shard migration cutover in progress"
		return
	}

	// Self-fencing (MS only): a node out of coordinator contact cannot know
	// whether it is still in the chain — the coordinator may be promoting
	// its replacement right now, and an ack issued here would exist only on
	// the deposed chain. AA modes don't need this: AA+SC writes must win a
	// DLM lease (unreachable under the same partition) and AA+EC acks are
	// sequenced through the shared log.
	if s.cfg.Mode.Topology == topology.MS && s.fenced() {
		ctlFencedRejects.Inc()
		resp.Status = wire.StatusUnavailable
		resp.Err = "controlet: fenced (no coordinator contact)"
		return
	}

	switch {
	case s.cfg.Mode.Topology == topology.MS && s.cfg.Mode.Consistency == topology.Strong:
		s.chainWrite(m, shard, pos, req, resp)
	case s.cfg.Mode.Topology == topology.MS:
		s.asyncWrite(m, shard, pos, req, resp)
	case s.cfg.Mode.Consistency == topology.Strong:
		s.lockedWrite(m, shard, req, resp)
	default:
		s.loggedWrite(req, resp)
	}
}

// forwardWrite relays a client write to a peer controlet as an OpHandoff
// (the original op rides in Limit) and copies the peer's answer back.
func (s *Server) forwardWrite(peer topology.Node, req *wire.Request, resp *wire.Response) {
	pool, err := s.peerPool(peer.ControletAddr)
	if err != nil {
		resp.Status = wire.StatusUnavailable
		resp.Err = "controlet: transition peer unreachable: " + err.Error()
		return
	}
	fwd := *req
	fwd.Op = wire.OpHandoff
	fwd.Limit = uint32(req.Op)
	if !fwd.RestampDeadline(time.Now()) {
		ctlDeadlineExpired.Inc()
		resp.Status = wire.StatusOverloaded
		resp.Err = "controlet: deadline expired"
		return
	}
	if err := pool.Do(&fwd, resp); err != nil {
		s.dropPeer(peer.ControletAddr)
		resp.Reset()
		resp.ID = req.ID
		resp.Status = wire.StatusUnavailable
		resp.Err = "controlet: transition forward failed: " + err.Error()
	}
	resp.ID = req.ID
}

// handleGet is the client-facing read path; per-request consistency
// (§IV-C) picks between local serves and redirects.
func (s *Server) handleGet(req *wire.Request, resp *wire.Response) {
	m := s.Map()
	shard, pos := s.myShard(m)

	level := req.Level
	if level == wire.LevelDefault {
		if s.cfg.Mode.Consistency == topology.Strong {
			level = wire.LevelStrong
		} else {
			level = wire.LevelEventual
		}
	}

	// Standalone controlets (no map installed) serve locally.
	if m == nil {
		s.localCall(req, resp)
		return
	}

	// During a transition reads stay on the old replicas and observe EC,
	// exactly as §V-A describes.
	if m.Transition != nil {
		s.localCall(req, resp)
		return
	}

	// A node failed out of the map (or drained away) must not serve even
	// eventual reads: its state stops being repaired, so its answers can
	// be arbitrarily stale rather than merely eventually consistent.
	if pos < 0 {
		resp.Status = wire.StatusUnavailable
		resp.Err = "controlet: node not in current map"
		return
	}

	switch {
	case level == wire.LevelEventual:
		s.localCall(req, resp)
	case s.cfg.Mode.Topology == topology.AA && s.cfg.Mode.Consistency == topology.Strong:
		s.lockedGet(req, resp)
	case s.cfg.Mode.Topology == topology.AA:
		// Strong read on AA+EC: best effort, serve locally (the paper's
		// AA+EC offers no strong reads either).
		s.localCall(req, resp)
	default:
		// MS: strong reads are owned by the chain tail (MS+SC) / the
		// master's tail equivalent. Redirect when we are not it.
		if pos < 0 {
			resp.Status = wire.StatusUnavailable
			resp.Err = "controlet: node not in current map"
			return
		}
		owner := shard.ReadTail() // recovering tails don't serve reads
		if s.cfg.Mode.Consistency == topology.Eventual {
			owner = shard.Head() // master holds the freshest state
		}
		if owner.ID == s.cfg.NodeID {
			// A fenced owner must not serve strong reads: the coordinator
			// may have already promoted a new chain that has acked writes
			// this isolated node never saw.
			if s.fenced() {
				ctlFencedRejects.Inc()
				resp.Status = wire.StatusUnavailable
				resp.Err = "controlet: fenced (no coordinator contact)"
				return
			}
			s.localCall(req, resp)
			return
		}
		if s.cfg.P2PRouting && req.Limit < maxP2PHops {
			s.relayTo(owner.ControletAddr, req, resp)
			return
		}
		resp.Status = wire.StatusRedirect
		resp.Err = owner.ControletAddr
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
		pool, err := s.dataletPool(n)
		if err != nil {
			resp.Status = wire.StatusUnavailable
			resp.Err = err.Error()
			return
		}
		fwd := wire.GetRequest()
		*fwd = *req
		peerResp := wire.GetResponse()
		err = pool.Do(fwd, peerResp)
		putCopy(fwd)
		wire.PutResponse(peerResp)
		if err != nil {
			s.dropDataletPeer(n.DataletAddr)
			resp.Status = wire.StatusUnavailable
			resp.Err = err.Error()
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

// handleRepl applies an asynchronous replication record from a peer. The
// record is post-ack — the master already answered its client — so no
// deadline applies: dropping it would lose an acknowledged write.
func (s *Server) handleRepl(req *wire.Request, resp *wire.Response) {
	s.observeVersion(req.Version)
	op := wire.OpPut
	if req.Op == wire.OpReplDel {
		op = wire.OpDel
	}
	if err := s.applyLocal(op, req.Table, req.Key, req.Value, req.Version, req.TraceID, 0); err != nil {
		resp.Status = wire.StatusErr
		resp.Err = err.Error()
		return
	}
	resp.Status = wire.StatusOK
	resp.Version = req.Version
}
