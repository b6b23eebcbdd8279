package controlet

import (
	"fmt"
	"time"

	"bespokv/internal/migrate"
	"bespokv/internal/topology"
)

// migrationState is the controlet's side of one shard migration: the spec
// the coordinator sent and the mover executing it. At most one migration
// is active per controlet; the pointer lives in Server.mig so the write
// hot path can check for it with a single atomic load.
type migrationState struct {
	spec  migrate.Spec
	mover *migrate.Mover
}

// migrationFor returns the active migration if it matches id.
func (s *Server) migrationFor(id string) (*migrationState, error) {
	ms := s.mig.Load()
	if ms == nil {
		return nil, fmt.Errorf("controlet: no active migration (want %s)", id)
	}
	if ms.spec.ID != id {
		return nil, fmt.Errorf("controlet: active migration is %s, not %s", ms.spec.ID, id)
	}
	return ms, nil
}

// MigrateRef names an active migration in the per-step RPCs.
type MigrateRef struct {
	ID string `json:"id"`
}

// MigrateStreamReply reports the snapshot leg's volume.
type MigrateStreamReply struct {
	Keys       uint64 `json:"keys"`
	Bytes      uint64 `json:"bytes"`
	MaxVersion uint64 `json:"max_version"`
}

// MigrateCutoverReply reports the highest version this replica shipped,
// across both the snapshot and every dual-write — the input to the
// destination version floor.
type MigrateCutoverReply struct {
	MaxVersion uint64 `json:"max_version"`
}

// MigrateGCReply reports how many keys the source deleted.
type MigrateGCReply struct {
	Keys uint64 `json:"keys"`
}

// MigrateFloorArgs floors a DESTINATION replica's version domain above
// every migrated version, before the epoch bump makes it an owner.
type MigrateFloorArgs struct {
	Floor uint64 `json:"floor"`
}

// MigrateStatusReply is the controlet-local migration status.
type MigrateStatusReply struct {
	Active bool           `json:"active"`
	Status migrate.Status `json:"status,omitempty"`
}

// handleMigrateOut arms the dual-write window: it builds the mover and
// publishes it to the write path. Idempotent per migration ID, so the
// coordinator can safely retry.
func (s *Server) handleMigrateOut(spec migrate.Spec) (struct{}, error) {
	if cur := s.mig.Load(); cur != nil {
		if cur.spec.ID == spec.ID {
			return struct{}{}, nil
		}
		return struct{}{}, fmt.Errorf("controlet: migration %s already active", cur.spec.ID)
	}
	mv, err := migrate.New(migrate.Config{
		Spec:  spec,
		Local: s.local,
		Dest: func(n topology.Node) (migrate.Backend, error) {
			return s.peerDatalet(n), nil
		},
		Logf: s.cfg.Logf,
	})
	if err != nil {
		return struct{}{}, err
	}
	if !s.mig.CompareAndSwap(nil, &migrationState{spec: spec, mover: mv}) {
		mv.Stop()
		return struct{}{}, fmt.Errorf("controlet: migration raced another MigrateOut")
	}
	s.cfg.Logf("controlet %s: migration %s armed (source %s)", s.cfg.NodeID, spec.ID, spec.SourceShard)
	return struct{}{}, nil
}

// handleMigrateStream runs the snapshot leg on this replica. The
// coordinator elects exactly one replica per source shard to stream; the
// others only dual-write. On AA+EC the applier drains first so the local
// datalet reflects every entry sequenced before the dual-write window
// armed — anything later is mirrored at ack time.
func (s *Server) handleMigrateStream(ref MigrateRef) (MigrateStreamReply, error) {
	ms, err := s.migrationFor(ref.ID)
	if err != nil {
		return MigrateStreamReply{}, err
	}
	if s.aaec != nil {
		s.aaec.drain()
	}
	keys, bytes, err := ms.mover.Stream()
	return MigrateStreamReply{Keys: keys, Bytes: bytes, MaxVersion: ms.mover.MaxVersion()}, err
}

// handleMigrateCutover runs the cutover barrier on this replica: refuse
// new writes to moving keys, wait out the writes already executing (they
// hold the inflight read lock and mirror at ack), then drain the catch-up
// queue to zero. When this returns on every source replica, the
// destinations hold every acknowledged write — the invariant that makes
// the coordinator's epoch bump safe.
func (s *Server) handleMigrateCutover(ref MigrateRef) (MigrateCutoverReply, error) {
	ms, err := s.migrationFor(ref.ID)
	if err != nil {
		return MigrateCutoverReply{}, err
	}
	start := time.Now()
	ms.mover.BeginCutover()
	s.inflight.Lock()
	//lint:ignore SA2001 empty critical section is the quiesce barrier
	s.inflight.Unlock()
	quiesced := time.Now()
	depth := ms.mover.QueueDepth()
	ms.mover.DrainQueue()
	s.cfg.Logf("controlet %s: %s cutover: quiesce %v, drain %v (depth %d at barrier)",
		s.cfg.NodeID, ref.ID, quiesced.Sub(start), time.Since(quiesced), depth)
	return MigrateCutoverReply{MaxVersion: ms.mover.MaxVersion()}, nil
}

// handleMigrateFloor runs on DESTINATION replicas before the epoch bump.
// It lifts the Lamport clock past every migrated version and, on AA+EC,
// sequences a floor record through the shard's log stream so offset-derived
// versions jump above the floor deterministically on every replica.
func (s *Server) handleMigrateFloor(args MigrateFloorArgs) (struct{}, error) {
	s.observeVersion(args.Floor)
	if s.aaec != nil {
		if err := s.aaec.appendFloor(args.Floor); err != nil {
			return struct{}{}, err
		}
	}
	return struct{}{}, nil
}

// handleMigrateGC deletes the moved range at the source and retires the
// mover. Runs after the epoch bump: clients have already been redirected
// away, so the deletes race nothing.
func (s *Server) handleMigrateGC(ref MigrateRef) (MigrateGCReply, error) {
	ms, err := s.migrationFor(ref.ID)
	if err != nil {
		return MigrateGCReply{}, err
	}
	keys, err := ms.mover.GC()
	ms.mover.Stop()
	s.mig.CompareAndSwap(ms, nil)
	return MigrateGCReply{Keys: keys}, err
}

// handleMigrateAbort tears the migration down and lifts the barrier; the
// source serves exactly as before. Stray copies at the destinations are
// harmless — they own nothing until an epoch bump that now never comes.
// Idempotent: aborting an unknown or already-cleared ID is a no-op.
func (s *Server) handleMigrateAbort(ref MigrateRef) (struct{}, error) {
	ms := s.mig.Load()
	if ms == nil || ms.spec.ID != ref.ID {
		return struct{}{}, nil
	}
	ms.mover.Stop()
	s.mig.CompareAndSwap(ms, nil)
	s.cfg.Logf("controlet %s: migration %s aborted", s.cfg.NodeID, ref.ID)
	return struct{}{}, nil
}

// handleMigrateStatus reports the local mover's progress.
func (s *Server) handleMigrateStatus(struct{}) (MigrateStatusReply, error) {
	ms := s.mig.Load()
	if ms == nil {
		return MigrateStatusReply{}, nil
	}
	return MigrateStatusReply{Active: true, Status: ms.mover.Status()}, nil
}
