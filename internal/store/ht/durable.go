package ht

import (
	"errors"
	"os"
	"time"

	"bespokv/internal/store"
	"bespokv/internal/store/wal"
)

// checkpointName is the snapshot file holding the full table image; the
// WAL in dir/wal covers everything written after it.
const checkpointName = "checkpoint"

// Options configures a durable hash-table engine.
type Options struct {
	// Dir holds the checkpoint file and the wal/ subdirectory.
	Dir string
	// FS is the backing filesystem; nil means the real disk.
	FS wal.FS
	// CheckpointEvery is the floor on logged writes between full-table
	// checkpoint snapshots; the actual trigger is max(CheckpointEvery,
	// live table size) so snapshot cost amortizes to O(1) per write.
	// 0 means a default of 65536; negative disables checkpointing.
	CheckpointEvery int
	// SyncDelay widens the WAL group-commit window (see wal.Options).
	SyncDelay time.Duration
	// SegmentBytes is the WAL segment rotation threshold.
	SegmentBytes int64
}

// Open returns a durable hash-table engine: every Put/Delete is appended
// to a write-ahead log before it is applied and acked, and a periodic
// full-state checkpoint bounds recovery replay. Open itself performs that
// recovery — checkpoint load, then WAL replay with torn-tail repair.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("ht: Options.Dir required for durable mode")
	}
	if opts.FS == nil {
		opts.FS = wal.OSFS{}
	}
	ckptEvery := opts.CheckpointEvery
	if ckptEvery == 0 {
		ckptEvery = 1 << 16
	} else if ckptEvery < 0 {
		ckptEvery = 0
	}
	s := New()
	s.fs = opts.FS
	s.dir = opts.Dir
	s.ckptEvery = ckptEvery
	err := wal.ReadSnapshotFile(opts.FS, opts.Dir, checkpointName, func(body []byte) error {
		rec, err := wal.DecodeRecord(body)
		if err != nil {
			return err
		}
		s.applyRecord(rec)
		return nil
	})
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	l, err := wal.Open(wal.Options{
		Dir:          wal.Join(opts.Dir, "wal"),
		FS:           opts.FS,
		SegmentBytes: opts.SegmentBytes,
		SyncDelay:    opts.SyncDelay,
	})
	if err != nil {
		return nil, err
	}
	if err := l.Replay(func(body []byte) error {
		rec, err := wal.DecodeRecord(body)
		if err != nil {
			return err
		}
		s.applyRecord(rec)
		return nil
	}); err != nil {
		l.Close()
		return nil, err
	}
	s.wal = l
	s.recoveredVer = s.maxVer.Load()
	return s, nil
}

// applyRecord applies one recovered record through the LWW rule, the same
// write path Put and Delete take. Replay is thereby idempotent and
// order-insensitive, which is what makes the checkpoint/WAL overlap (and
// group-commit reordering) safe.
func (s *Store) applyRecord(r wal.Record) {
	s.observeVersion(r.Version)
	s.apply(r.Key, r.Value, r.Version, r.Tombstone)
}

// logRecord appends the record to the WAL and returns with ckptMu read-
// held on success: the caller applies the write to the table and then
// calls logDone. Holding ckptMu across append+apply keeps checkpoints
// atomic — a snapshot either sees the applied write or the reset WAL
// still holds its record, never neither.
func (s *Store) logRecord(key, value []byte, version uint64, tombstone bool) error {
	s.ckptMu.RLock()
	body := wal.EncodeRecord(nil, wal.Record{Tombstone: tombstone, Version: version, Key: key, Value: value})
	if _, err := s.wal.Append(body); err != nil {
		s.ckptMu.RUnlock()
		return err
	}
	return nil
}

// logDone releases the checkpoint read-lock taken by logRecord and
// triggers a checkpoint once enough writes accumulated since the last.
// The trigger is adaptive: a snapshot costs O(table), so it waits for at
// least that many logged records (with CheckpointEvery as the floor).
// Replay stays bounded at roughly one table's worth of WAL on top of the
// checkpoint, and checkpoint bytes amortize to O(1) per write even when
// the table itself keeps growing.
func (s *Store) logDone() {
	s.ckptMu.RUnlock()
	if s.ckptEvery <= 0 {
		return
	}
	n := s.sinceCkpt.Add(1)
	trigger := int64(s.ckptEvery)
	if t := s.live.Load(); t > trigger {
		trigger = t
	}
	if n >= trigger && s.ckptRunning.CompareAndSwap(false, true) {
		_ = s.Checkpoint()
		s.ckptRunning.Store(false)
	}
}

// Checkpoint writes a full-table snapshot (tmp + fsync + rename + dir
// sync) and resets the WAL. A crash between the rename and the reset is
// safe: replaying the old WAL over the new checkpoint is idempotent.
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return errors.New("ht: not a durable store")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.sinceCkpt.Store(0)
	err := wal.WriteSnapshotFile(s.fs, s.dir, checkpointName, func(add func([]byte) error) error {
		var scratch []byte
		all := func(record) bool { return true }
		return s.walk(all, func(kv store.KV, tombstone bool) error {
			scratch = wal.EncodeRecord(scratch[:0], wal.Record{
				Tombstone: tombstone,
				Version:   kv.Version,
				Key:       kv.Key,
				Value:     kv.Value,
			})
			return add(scratch)
		})
	})
	if err != nil {
		return err
	}
	return s.wal.Reset()
}

// MaxVersion returns the highest version assigned or observed.
func (s *Store) MaxVersion() uint64 { return s.maxVer.Load() }

// RecoveredVersion returns the watermark captured at the end of open-time
// recovery; 0 for in-memory stores and stores that started empty.
func (s *Store) RecoveredVersion() uint64 { return s.recoveredVer }

// WAL exposes the underlying log for white-box tests and benches; nil for
// in-memory stores.
func (s *Store) WAL() *wal.Log { return s.wal }

var (
	_ store.Versioned = (*Store)(nil)
	_ store.Recovered = (*Store)(nil)
)
