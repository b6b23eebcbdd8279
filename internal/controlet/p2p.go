package controlet

import (
	"math/rand/v2"

	"bespokv/internal/clock"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// P2P-style topology (§IV-E): with Config.P2PRouting enabled, a client may
// send any request to any controlet; a controlet that does not own the key
// routes it to the owning shard's appropriate node — the one-hop
// equivalent of a Chord finger table, using the cluster map as the routing
// map — and relays the answer. Combined with per-shard MS chains this also
// yields the paper's AA-MS hybrid: active-active entry points over
// master-slave shards.
//
// Forwarded point requests carry a hop count in the (otherwise unused for
// point ops) Limit field so stale maps cannot loop a request forever;
// after maxP2PHops the request falls back to a redirect.
const maxP2PHops = 3

// routeForeign handles requests for keys this controlet's shard does not
// own: under P2PRouting it forwards to the owning shard and relays;
// otherwise it redirects the client (a misrouted write must never land in
// the wrong shard, where fresh clients would not find it). Reports whether
// it handled the request.
func (s *Server) routeForeign(req *wire.Request, resp *wire.Response) bool {
	switch req.Op {
	case wire.OpPut, wire.OpGet, wire.OpDel:
	default:
		return false // scans fan out client-side; internal ops are pre-routed
	}
	m, ring := s.mapAndRing()
	if m == nil || len(m.Shards) < 2 {
		return false
	}
	if m.Partitioner == topology.HashPartitioner && ring == nil {
		return false
	}
	owner := m.Shards[m.ShardFor(req.Key, ring)]
	mine, _ := s.myShard(m)
	if owner.ID == mine.ID || mine.ID == "" {
		return false
	}
	s.toOwner(s.p2pTarget(m, owner, req).ControletAddr, req, resp)
	return true
}

// toOwner gets a request this node may not serve to the node that may —
// another shard's replica, this shard's head for a write, the strong-read
// owner for a read: under P2P routing by relaying it, otherwise (and once
// the hop budget is spent) by redirecting the client. Deliberate
// difference: a batch is always redirected, never relayed — its sender
// bucketed it by shard and role under a map that has just proved stale, so
// the client should re-bucket rather than have one frame chase its keys.
func (s *Server) toOwner(addr string, req *wire.Request, resp *wire.Response) {
	batch := req.Op == wire.OpMGet || req.Op == wire.OpMPut
	if !s.cfg.P2PRouting || batch || req.Limit >= maxP2PHops {
		resp.Status = wire.StatusRedirect
		resp.Err = addr
		return
	}
	fwd := *req
	fwd.Limit++
	_ = s.relay(addr, &fwd, resp) // the refusal is the client's answer
}

// p2pTarget picks the node in the owning shard that should see req: the
// one the mode's route row names, and where the row leaves the pick open
// (any replica will do) the key's slot owner, so one key's relays all land
// on one node.
func (s *Server) p2pTarget(m *topology.Map, owner topology.Shard, req *wire.Request) topology.Node {
	rt := m.Mode.Route()
	t := rt.Write
	if req.Op == wire.OpGet {
		t = rt.ReadTarget(req.Level.Strong(rt.Strong))
	}
	if t == topology.ToAny {
		t = topology.ToOwner
	}
	return owner.Pick(t, req.Key, rand.IntN)
}

// relay sends fwd — a client request on its way to the peer controlet that
// must serve it: a P2P hop, a transition handoff, a slot owner's op — and
// copies the peer's answer back. The peer is handed what remains of the
// deadline budget. A failed hop is answered as a refusal and its error
// returned.
func (s *Server) relay(addr string, fwd *wire.Request, resp *wire.Response) error {
	if !fwd.RestampDeadline(clock.Mono) {
		s.admit.Expired.Inc()
		resp.Status = wire.StatusOverloaded
		resp.Err = "controlet: deadline expired"
		return nil
	}
	err := s.relays.To(addr, s.cfg.Codec).Do(fwd, resp)
	if err != nil {
		resp.Reset()
		refuse(resp, "controlet: relay to "+addr+": "+err.Error())
	}
	return err
}

// mapView is an installed map with its consistent-hash ring.
type mapView struct {
	m    *topology.Map
	ring *topology.Ring
}

// mapAndRing returns the current map with its cached consistent-hash ring.
func (s *Server) mapAndRing() (*topology.Map, *topology.Ring) {
	if v := s.cur.Load(); v != nil {
		return v.m, v.ring
	}
	return nil, nil
}
