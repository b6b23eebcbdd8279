package coordinator

import (
	"errors"
	"fmt"
	"time"

	"bespokv/internal/topology"
)

// failureDetector periodically sweeps heartbeat timestamps and fails over
// nodes that went silent.
func (s *Server) failureDetector() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.HeartbeatTimeout / 4)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-ticker.C:
			s.sweep()
		}
	}
}

func (s *Server) sweep() {
	// Only the leader receives heartbeats, and only its take-over for the
	// term grants every node a fresh grace: a follower, or a leader whose
	// take-over has not run yet, sweeping its never-refreshed lastSeen
	// view would fail everything. The term is read before s.mu (see
	// Status).
	if !s.rsm.IsLeader() {
		return
	}
	term := s.rsm.Status().Term
	s.mu.Lock()
	if s.cur == nil || s.tookOver != term {
		s.mu.Unlock()
		return
	}
	if s.cur.Transition != nil || s.migrating != nil {
		// Failover, transition and migration machinery must not
		// interleave: a node removed from the old shards mid-switch would
		// leave the new shards referencing it, and a mid-migration
		// failover would invalidate the plan's replica sets. Defer
		// detection until the operation completes (both run in seconds);
		// truly dead nodes stay silent and are swept on the next pass.
		s.mu.Unlock()
		return
	}
	now := time.Now()
	var dead []string
	for _, shard := range s.cur.Shards {
		for _, n := range shard.Replicas {
			if s.suspended[n.ID] {
				continue
			}
			seen, ok := s.lastSeen[n.ID]
			if !ok || now.Sub(seen) > s.cfg.HeartbeatTimeout {
				dead = append(dead, n.ID)
				s.suspended[n.ID] = true
			}
		}
	}
	s.mu.Unlock()
	for _, id := range dead {
		s.cfg.Logf("coordinator: node %s missed heartbeats, failing over", id)
		if err := s.FailNode(id); err != nil {
			s.cfg.Logf("coordinator: failover of %s: %v", id, err)
		}
	}
}

// FailNode removes a node from its shard immediately (chain repair /
// master promotion happen implicitly through replica order), then — if a
// standby pair is registered — recovers the shard's data onto the standby
// and appends it as the new tail. Exposed for tests and the kill-based
// failover experiments.
func (s *Server) FailNode(nodeID string) error {
	if err := s.leaderCheck(); err != nil {
		return err
	}
	start := time.Now()
	s.proposeMu.Lock()
	s.mu.Lock()
	if s.cur == nil {
		s.mu.Unlock()
		s.proposeMu.Unlock()
		return errors.New("coordinator: no map installed")
	}
	if s.cur.Transition != nil {
		s.mu.Unlock()
		s.proposeMu.Unlock()
		return errors.New("coordinator: transition in flight; failover deferred")
	}
	if s.migrating != nil {
		s.mu.Unlock()
		s.proposeMu.Unlock()
		return errors.New("coordinator: migration in flight; failover deferred")
	}
	m := s.cur.Clone()
	s.mu.Unlock()
	shardIdx := -1
	for si := range m.Shards {
		reps := m.Shards[si].Replicas
		for ri, n := range reps {
			if n.ID != nodeID {
				continue
			}
			m.Shards[si].Replicas = append(reps[:ri:ri], reps[ri+1:]...)
			shardIdx = si
		}
	}
	if shardIdx == -1 {
		s.proposeMu.Unlock()
		return fmt.Errorf("coordinator: node %s not in map", nodeID)
	}
	if len(m.Shards[shardIdx].Replicas) == 0 {
		s.proposeMu.Unlock()
		return fmt.Errorf("coordinator: node %s was the last replica of %s", nodeID, m.Shards[shardIdx].ID)
	}
	m.Epoch++
	// The install claims the standby in the same replicated step, so a
	// failed-over leader can never hand the same standby out twice.
	standby, err := s.installMap(m, true)
	if err != nil {
		s.proposeMu.Unlock()
		return err
	}
	s.mu.Lock()
	s.suspended[nodeID] = true
	s.mu.Unlock()
	s.proposeMu.Unlock()
	shardID := m.Shards[shardIdx].ID
	source := m.Shards[shardIdx].Replicas[len(m.Shards[shardIdx].Replicas)-1]

	s.pushMap()
	coordFailovers.Inc()
	coordFailoverLat.Observe(time.Since(start))
	if standby == nil {
		return nil
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		recStart := time.Now()
		if _, err := s.recoverOnto(*standby, source, shardID); err != nil {
			coordRecoveryFails.Inc()
			s.cfg.Logf("coordinator: recovery of %s onto %s: %v", shardID, standby.ID, err)
			s.returnStandby(*standby)
			return
		}
		coordRecoveries.Inc()
		coordRecoveryLat.Observe(time.Since(recStart))
	}()
	return nil
}

// RejoinReply reports how a joining node caught up: how many records the
// backfill transferred and whether it was an incremental delta (a
// restarted node pulling only what it missed) rather than a full export.
type RejoinReply struct {
	Pairs int  `json:"pairs"`
	Delta bool `json:"delta"`
}

// recoverOnto performs the two-phase standby join. Phase 1 appends the
// standby to the shard marked Recovering: from that epoch on, every new
// write traverses it (chain tail position / EC propagation target), so it
// can miss nothing going forward, while reads skip it. Phase 2 backfills
// history by pulling a surviving datalet's snapshot — last-writer-wins
// versioning makes the concurrent backfill and live writes commute — and
// then clears the Recovering mark, moving reads to the new tail. Without
// phase 1 first, a write acknowledged between the backfill snapshot and
// the join would be missing from the new read tail: an acked-write loss
// under strong consistency (caught by cluster.TestChaosKillsUnderMSSC).
// The backfill itself may be incremental: a restarted node's controlet
// asks the source for a delta above its recovered watermark and falls
// back to the full export only when the source cannot serve one.
func (s *Server) recoverOnto(standby, source topology.Node, shardID string) (RejoinReply, error) {
	var reply RejoinReply
	// Phase 1: join for writes, hidden from reads.
	joining := standby
	joining.Recovering = true
	if err := s.mutateShard(shardID, func(shard *topology.Shard) error {
		shard.Replicas = append(shard.Replicas, joining)
		return nil
	}); err != nil {
		return reply, err
	}
	s.mu.Lock()
	s.lastSeen[standby.ID] = time.Now()
	delete(s.suspended, standby.ID)
	cur := s.cur.Clone()
	s.mu.Unlock()
	s.pushMap()

	// Barrier: hand the new chain to every surviving member synchronously
	// and wait for their in-flight writes to finish, so no write acked
	// under the OLD chain can still be racing the backfill snapshot.
	for si := range cur.Shards {
		if cur.Shards[si].ID != shardID {
			continue
		}
		for _, n := range cur.Shards[si].Replicas {
			if n.ID == standby.ID || n.ControlAddr == "" {
				continue
			}
			ctl, err := s.dialCtl(n.ControlAddr)
			if err != nil {
				continue // node likely dead; it cannot ack writes either
			}
			_ = ctl.Call("UpdateMap", cur, nil)
			_ = ctl.Call("Quiesce", struct{}{}, nil)
			ctl.Close()
		}
	}

	// Phase 2: backfill, then expose to reads.
	if standby.ControlAddr != "" {
		ctl, err := s.dialCtl(standby.ControlAddr)
		if err != nil {
			return reply, err
		}
		defer ctl.Close()
		// The joiner must know it is in the shard before it recovers: an
		// AA+EC controlet follows the stream of the shard its map puts it
		// in, and takes its place in that stream from the source's
		// controlet. The broadcast push may not have landed yet.
		_ = ctl.Call("UpdateMap", cur, nil)
		args := struct {
			SourceDatalet string `json:"source"`
			SourceControl string `json:"source_ctl,omitempty"`
			Codec         string `json:"codec,omitempty"`
		}{SourceDatalet: source.DataletAddr, SourceControl: source.ControlAddr, Codec: source.DataletCodec}
		if err := ctl.Call("Recover", args, &reply); err != nil {
			// Leave the shard functional: drop the half-joined node.
			_ = s.mutateShard(shardID, func(shard *topology.Shard) error {
				kept := shard.Replicas[:0]
				for _, n := range shard.Replicas {
					if n.ID != standby.ID {
						kept = append(kept, n)
					}
				}
				shard.Replicas = kept
				return nil
			})
			s.pushMap()
			return reply, err
		}
	}
	if err := s.mutateShard(shardID, func(shard *topology.Shard) error {
		for i := range shard.Replicas {
			if shard.Replicas[i].ID == standby.ID {
				shard.Replicas[i].Recovering = false
			}
		}
		return nil
	}); err != nil {
		return reply, err
	}
	s.pushMap()
	s.cfg.Logf("coordinator: %s joined shard %s after recovering %d records (delta=%v)",
		standby.ID, shardID, reply.Pairs, reply.Delta)
	return reply, nil
}

// RejoinArgs asks the coordinator to re-admit a restarted node to its
// shard. Node carries the node's fresh addresses (a restart re-listens).
type RejoinArgs struct {
	Node    topology.Node `json:"node"`
	ShardID string        `json:"shard"`
}

// handleRejoin re-admits a node that crashed and restarted with durable
// state. Any stale map entry for the node (present when the failure
// detector had not yet swept it) is dropped first; the node then runs the
// same two-phase join as a standby promotion, except its controlet
// backfills incrementally from its recovered watermark when it can.
func (s *Server) handleRejoin(args RejoinArgs) (RejoinReply, error) {
	if err := s.leaderCheck(); err != nil {
		return RejoinReply{}, err
	}
	s.proposeMu.Lock()
	s.mu.Lock()
	if s.cur == nil {
		s.mu.Unlock()
		s.proposeMu.Unlock()
		return RejoinReply{}, errors.New("coordinator: no map installed")
	}
	if s.cur.Transition != nil || s.migrating != nil {
		s.mu.Unlock()
		s.proposeMu.Unlock()
		return RejoinReply{}, errors.New("coordinator: transition or migration in flight; rejoin deferred")
	}
	m := s.cur.Clone()
	s.mu.Unlock()
	shardIdx := -1
	for si := range m.Shards {
		if m.Shards[si].ID == args.ShardID {
			shardIdx = si
		}
	}
	if shardIdx == -1 {
		s.proposeMu.Unlock()
		return RejoinReply{}, fmt.Errorf("coordinator: unknown shard %s", args.ShardID)
	}
	// Drop the stale pre-crash entry and pick a backfill source among the
	// survivors (prefer the tail, skipping any still-recovering node).
	reps := m.Shards[shardIdx].Replicas[:0]
	for _, n := range m.Shards[shardIdx].Replicas {
		if n.ID != args.Node.ID {
			reps = append(reps, n)
		}
	}
	m.Shards[shardIdx].Replicas = reps
	var source *topology.Node
	for i := len(reps) - 1; i >= 0; i-- {
		if !reps[i].Recovering {
			source = &reps[i]
			break
		}
	}
	if source == nil {
		s.proposeMu.Unlock()
		return RejoinReply{}, fmt.Errorf("coordinator: shard %s has no live source to rejoin from", args.ShardID)
	}
	src := *source
	m.Epoch++
	if _, err := s.installMap(m, false); err != nil {
		s.proposeMu.Unlock()
		return RejoinReply{}, err
	}
	s.mu.Lock()
	delete(s.suspended, args.Node.ID)
	s.lastSeen[args.Node.ID] = time.Now()
	s.mu.Unlock()
	s.proposeMu.Unlock()
	s.pushMap()
	return s.recoverOnto(args.Node, src, args.ShardID)
}

// mutateShard applies fn to one shard, bumping the epoch and installing
// the result (replicated in RSM mode).
func (s *Server) mutateShard(shardID string, fn func(*topology.Shard) error) error {
	s.proposeMu.Lock()
	defer s.proposeMu.Unlock()
	s.mu.Lock()
	if s.cur == nil {
		s.mu.Unlock()
		return errors.New("coordinator: no map installed")
	}
	m := s.cur.Clone()
	s.mu.Unlock()
	for si := range m.Shards {
		if m.Shards[si].ID != shardID {
			continue
		}
		if err := fn(&m.Shards[si]); err != nil {
			return err
		}
		m.Epoch++
		_, err := s.installMap(m, false)
		return err
	}
	return fmt.Errorf("coordinator: unknown shard %s", shardID)
}

// pushMap best-effort delivers the current map to every controlet control
// endpoint (old-mode and, mid-transition, new-mode controlets).
func (s *Server) pushMap() {
	s.mu.Lock()
	if s.cur == nil {
		s.mu.Unlock()
		return
	}
	m := s.cur.Clone()
	s.mu.Unlock()
	targets := map[string]bool{}
	for _, shard := range m.Shards {
		for _, n := range shard.Replicas {
			if n.ControlAddr != "" {
				targets[n.ControlAddr] = true
			}
		}
	}
	if m.Transition != nil {
		for _, shard := range m.Transition.NewShards {
			for _, n := range shard.Replicas {
				if n.ControlAddr != "" {
					targets[n.ControlAddr] = true
				}
			}
		}
	}
	coordMapPushes.Inc()
	for addr := range targets {
		addr := addr
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			ctl, err := s.dialCtl(addr)
			if err != nil {
				return
			}
			defer ctl.Close()
			_ = ctl.Call("UpdateMap", m, nil)
		}()
	}
}

// handleBeginTransition installs the transition descriptor and starts the
// drain protocol: old controlets flush pending propagation and forward new
// writes to their new-mode replacements; when every old controlet reports
// drained, the coordinator completes the switch automatically.
func (s *Server) handleBeginTransition(args TransitionArgs) (HeartbeatReply, error) {
	if !args.To.Valid() {
		return HeartbeatReply{}, fmt.Errorf("coordinator: invalid target mode %s", args.To)
	}
	if err := s.leaderCheck(); err != nil {
		return HeartbeatReply{}, err
	}
	s.proposeMu.Lock()
	s.mu.Lock()
	if s.cur == nil {
		s.mu.Unlock()
		s.proposeMu.Unlock()
		return HeartbeatReply{}, errors.New("coordinator: no map installed")
	}
	if s.cur.Transition != nil {
		s.mu.Unlock()
		s.proposeMu.Unlock()
		return HeartbeatReply{}, errors.New("coordinator: transition already in flight")
	}
	if s.migrating != nil {
		s.mu.Unlock()
		s.proposeMu.Unlock()
		return HeartbeatReply{}, errors.New("coordinator: migration in flight; transition deferred")
	}
	if len(args.NewShards) != len(s.cur.Shards) {
		n := len(s.cur.Shards)
		s.mu.Unlock()
		s.proposeMu.Unlock()
		return HeartbeatReply{}, fmt.Errorf("coordinator: %d new shards for %d existing",
			len(args.NewShards), n)
	}
	m := s.cur.Clone()
	s.mu.Unlock()
	m.Transition = &topology.Transition{To: args.To, NewShards: args.NewShards}
	m.Epoch++
	if _, err := s.installMap(m, false); err != nil {
		s.proposeMu.Unlock()
		return HeartbeatReply{}, err
	}
	s.mu.Lock()
	// New-mode nodes begin heartbeating now.
	now := time.Now()
	for _, shard := range args.NewShards {
		for _, n := range shard.Replicas {
			s.lastSeen[n.ID] = now
		}
	}
	s.mu.Unlock()
	s.proposeMu.Unlock()
	epoch := m.Epoch
	drains := make([]topology.Node, 0, len(m.Shards))
	for _, shard := range m.Shards {
		drains = append(drains, shard.Replicas...)
	}
	s.pushMap()

	transitionMap := m.Clone()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.drainTransition(transitionMap, drains)
	}()
	return HeartbeatReply{Epoch: epoch}, nil
}

// drainTransition pushes the Drain command to every old-mode controlet and
// then completes the transition. It runs on the goroutine that owns the
// transition: the begin handler's, or a freshly elected leader resuming
// one a dead leader left in flight.
func (s *Server) drainTransition(transitionMap *topology.Map, drains []topology.Node) {
	for _, n := range drains {
		if n.ControlAddr == "" {
			continue
		}
		ctl, err := s.dialCtl(n.ControlAddr)
		if err != nil {
			s.cfg.Logf("coordinator: drain dial %s: %v", n.ID, err)
			continue
		}
		// The transition map rides in the Drain call: the broadcast
		// push is asynchronous, and a controlet must know its
		// forward target before it starts diverting writes.
		if err := ctl.Call("Drain", transitionMap, nil); err != nil {
			s.cfg.Logf("coordinator: drain %s: %v", n.ID, err)
		}
		ctl.Close()
	}
	if _, err := s.handleCompleteTransition(struct{}{}); err != nil {
		s.cfg.Logf("coordinator: complete transition: %v", err)
	}
}

// handleCompleteTransition promotes the new-mode shards to current.
func (s *Server) handleCompleteTransition(struct{}) (HeartbeatReply, error) {
	if err := s.leaderCheck(); err != nil {
		return HeartbeatReply{}, err
	}
	s.proposeMu.Lock()
	s.mu.Lock()
	if s.cur == nil || s.cur.Transition == nil {
		s.mu.Unlock()
		s.proposeMu.Unlock()
		return HeartbeatReply{}, errors.New("coordinator: no transition in flight")
	}
	m := s.cur.Clone()
	s.mu.Unlock()
	m.Mode = m.Transition.To
	m.Shards = m.Transition.NewShards
	m.Transition = nil
	m.Epoch++
	_, err := s.installMap(m, false)
	s.proposeMu.Unlock()
	if err != nil {
		return HeartbeatReply{}, err
	}
	s.pushMap()
	return HeartbeatReply{Epoch: m.Epoch}, nil
}
