package controlet

import (
	"fmt"

	"bespokv/internal/datalet"
	"bespokv/internal/wire"
)

// Anti-entropy (§C-C discussion): asynchronous propagation can drop writes
// when a slave is unreachable past the retry budget, and AA gossip systems
// repair such divergence with background reconciliation. bespokv exposes
// the same repair as an explicit control-RPC — the coordinator (or an
// operator) invokes Reconcile on a shard member after suspected
// divergence, typically when a slave rejoins after a long partition.
//
// The protocol is one-directional push: the invoked controlet streams its
// local datalet's snapshot and applies every pair at each peer datalet
// with its original version. LWW versioning makes this safe in both
// directions — pairs where the peer is newer are ignored by the peer's
// engine, pairs where the peer is stale are repaired.

// ReconcileReply reports how much state was examined and pushed.
type ReconcileReply struct {
	// Pairs is the number of snapshot pairs pushed.
	Pairs int `json:"pairs"`
	// Accepted is the number of pairs every peer now governs at this
	// node's version (repaired, or already in sync).
	Accepted int `json:"accepted"`
	// PeerNewer is the number of pairs some peer held at a newer version
	// than this node (this node is the stale one for those keys).
	PeerNewer int `json:"peer_newer"`
	// Peers is the number of replicas reconciled against.
	Peers int `json:"peers"`
}

func (s *Server) handleReconcile(struct{}) (ReconcileReply, error) {
	m := s.Map()
	if m == nil {
		return ReconcileReply{}, fmt.Errorf("controlet: no map installed")
	}
	shard, pos := s.myShard(m)
	if pos < 0 {
		return ReconcileReply{}, fmt.Errorf("controlet: node not in current map")
	}
	var reply ReconcileReply

	// Snapshot every table of the local datalet and push to peers.
	local := s.local.Get()
	var stats wire.Response
	if err := local.Do(&wire.Request{Op: wire.OpStats}, &stats); err != nil {
		return ReconcileReply{}, err
	}
	var peers []*datalet.Client
	defer func() {
		for _, p := range peers {
			_ = p.Close()
		}
	}()
	for _, n := range shard.Replicas {
		if n.ID == s.cfg.NodeID {
			continue
		}
		p, err := datalet.Dial(s.cfg.Network, n.DataletAddr, wire.CodecOr(n.DataletCodec, s.cfg.DataletCodec))
		if err != nil {
			return ReconcileReply{}, fmt.Errorf("controlet: reconcile dial %s: %w", n.ID, err)
		}
		peers = append(peers, p)
	}
	reply.Peers = len(peers)

	for _, tablePair := range stats.Pairs {
		table := string(tablePair.Key)
		// Create the table at peers (idempotent) before pushing.
		if table != "" {
			for _, p := range peers {
				var resp wire.Response
				if err := p.Do(&wire.Request{Op: wire.OpCreateTable, Table: table}, &resp); err != nil {
					return reply, err
				}
			}
		}
		src, err := datalet.Dial(s.localNet, s.localAddr, s.cfg.DataletCodec)
		if err != nil {
			return reply, err
		}
		err = src.Export(table, 0, func(kv wire.KV, tombstone bool) error {
			if tombstone {
				return nil // repair pushes live pairs only
			}
			reply.Pairs++
			req := wire.Request{
				Op:      wire.OpPut,
				Table:   table,
				Key:     kv.Key,
				Value:   kv.Value,
				Version: kv.Version,
			}
			accepted := true
			peerNewer := false
			for _, p := range peers {
				var resp wire.Response
				if err := p.Do(&req, &resp); err != nil {
					return err
				}
				if resp.Version > kv.Version {
					peerNewer = true // the peer's LWW kept its newer value
					accepted = false
				}
			}
			if accepted {
				reply.Accepted++
			}
			if peerNewer {
				reply.PeerNewer++
			}
			return nil
		})
		src.Close()
		if err != nil {
			return reply, fmt.Errorf("controlet: reconcile table %q: %w", table, err)
		}
	}
	s.cfg.Logf("controlet %s: reconciled %d pairs across %d peers", s.cfg.NodeID, reply.Pairs, reply.Peers)
	return reply, nil
}
