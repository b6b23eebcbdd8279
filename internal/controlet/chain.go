package controlet

import (
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// MS+SC replicates by chain (§IV-A): the head orders the write and applies
// it, every node forwards it to its successor and applies it, the tail's
// ack travels back up, and the head answers the client (CRAQ-style single
// client connection). Strong reads are the tail's.

// replicateChain is the head's replicate stage: forward what the local
// apply accepted and wait for the tail's ack.
func (s *Server) replicateChain(m *topology.Map, shard topology.Shard, w *writeSet) error {
	c := s.forwardChain(m, shard, 0, w)
	if err := c.wait(nil); err != nil {
		return downstream{"replicate", err}
	}
	return nil
}

// forwardChain launches w's applied pairs toward the successor of position
// pos and returns at once, so a mid-chain node overlaps its local apply
// with the downstream hop. The tail, and a set with nothing left to
// forward, get the zero call.
func (s *Server) forwardChain(m *topology.Map, shard topology.Shard, pos int, w *writeSet) peerCall {
	if pos+1 >= len(shard.Replicas) {
		return peerCall{}
	}
	fwd := wire.GetRequest()
	if w.encode(fwd, frameChain, wire.StatusOK) == 0 {
		wire.PutRequest(fwd)
		return peerCall{}
	}
	// Every hop stamps its own map's epoch — not the head's — so what the
	// successor compares against its map is always its direct sender's.
	fwd.Epoch = m.Epoch
	c := s.send(shard.Replicas[pos+1].ControletAddr, fwd)
	if c.fwd != nil {
		ctlChainForwards.Inc()
	}
	return c
}

// handleChain is the mid/tail side, one body for OpChainPut, OpChainDel
// and OpChainMPut: launch the forward to the successor, apply locally
// while it travels, ack upstream only after both. Overlapping the two
// halves pipelines the chain — the per-hop latency is max(apply, hop)
// instead of their sum — and is safe because the upstream ack (what the
// head's client observes, and what tail reads serve) still implies every
// node applied.
func (s *Server) handleChain(req *wire.Request, resp *wire.Response) {
	w := decodeWrite(req)
	defer w.release()
	for i := range w.pairs {
		s.observeVersion(w.pairs[i].Version)
	}
	m := s.Map()
	shard, pos := s.myShard(m)
	if m != nil && pos < 0 {
		refuse(resp, "controlet: node not in current map")
		return
	}
	ack := s.forwardChain(m, shard, pos, w)
	err := s.applyLocal(w, false)
	// Always collect the forward, even when the write already failed here.
	if ferr := ack.wait(nil); err == nil && ferr != nil {
		err = downstream{"chain", ferr}
	}
	if err != nil {
		failWrite(resp, err)
		return
	}
	resp.Status = wire.StatusOK
	if !w.batch {
		resp.Version = req.Version
	}
}
