package rsm

import (
	"errors"
	"fmt"
	"os"

	"bespokv/internal/store/wal"
)

// snapName is the checkpoint file within the node's directory. The
// checkpoint is a complete durable image — state-machine snapshot, hard
// state, and the log tail above the snapshot index — so compaction can
// Reset the WAL without a window where a crash loses the un-snapshotted
// tail or the vote.
const snapName = "rsm.snap"

// storage is the node's durable state: a wal.Log of tagged records plus a
// checkpoint file, both through the pluggable wal.FS so faultfs crash and
// torn-write injection exercises the recovery paths. A group of one with no
// directory has no log at all (log nil): it persists nothing and keeps no
// entry (see pass). Not safe for concurrent use; the Node serialises access
// under its own mutex.
type storage struct {
	fs  wal.FS
	dir string
	log *wal.Log

	// Folded state after openStorage.
	term     uint64
	votedFor string
	snap     SnapMeta
	snapData []byte
	entries  []Entry // contiguous; entries[0].Index == snap.Index+1
}

// openStorage loads the checkpoint (if any), then folds the WAL on top of
// it. A corrupt checkpoint is fatal — unlike engine snapshots, the WAL was
// Reset when it was written, so there is no older state to fail open to.
// An empty dir opens storage with no log.
func openStorage(fs wal.FS, dir string) (*storage, error) {
	if dir == "" {
		return &storage{}, nil
	}
	if fs == nil {
		fs = wal.OSFS{}
	}
	st := &storage{fs: fs, dir: dir}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("rsm: mkdir %s: %w", dir, err)
	}
	var frames [][]byte
	err := wal.ReadSnapshotFile(fs, dir, snapName, func(body []byte) error {
		frames = append(frames, body)
		return nil
	})
	switch {
	case err == nil:
		if len(frames) != 4 {
			return nil, fmt.Errorf("rsm: checkpoint has %d frames: %w", len(frames), wal.ErrSnapshotCorrupt)
		}
		meta, err := DecodeSnapMeta(frames[0])
		if err != nil {
			return nil, fmt.Errorf("rsm: checkpoint meta: %w", err)
		}
		term, voted, err := DecodeHardState(frames[1])
		if err != nil {
			return nil, fmt.Errorf("rsm: checkpoint hard state: %w", err)
		}
		tail, err := DecodeEntries(frames[2])
		if err != nil {
			return nil, fmt.Errorf("rsm: checkpoint tail: %w", err)
		}
		st.snap = meta
		st.snapData = frames[3]
		st.term, st.votedFor = term, voted
		st.entries = tail
	case errors.Is(err, os.ErrNotExist):
		// Fresh node.
	default:
		return nil, err
	}
	l, err := wal.Open(wal.Options{Dir: dir, FS: fs})
	if err != nil {
		return nil, err
	}
	if err := l.Replay(st.fold); err != nil {
		l.Close()
		return nil, err
	}
	st.log = l
	return st, nil
}

// fold applies one WAL record to the in-memory state. Records are strictly
// chronological, so replaying the (possibly partially-Reset) WAL on top of
// a checkpoint converges on the newest state; the hard-state merge is
// monotonic as defense against a filesystem that drops a middle segment.
func (st *storage) fold(body []byte) error {
	if len(body) == 0 {
		return errors.New("rsm: empty wal record")
	}
	switch body[0] {
	case recHardState:
		t, v, err := DecodeHardState(body)
		if err != nil {
			return err
		}
		if t > st.term {
			st.term, st.votedFor = t, v
		} else if t == st.term && st.votedFor == "" {
			st.votedFor = v
		}
	case recTruncate:
		from, err := DecodeTruncate(body)
		if err != nil {
			return err
		}
		st.dropFrom(from)
	case recEntries:
		es, err := DecodeEntries(body)
		if err != nil {
			return err
		}
		for _, e := range es {
			if e.Index <= st.snap.Index {
				continue // already inside the checkpoint image
			}
			st.dropFrom(e.Index)
			if e.Index != st.lastIndex()+1 {
				return fmt.Errorf("rsm: log gap: entry %d after last %d", e.Index, st.lastIndex())
			}
			st.entries = append(st.entries, e)
		}
	default:
		return fmt.Errorf("rsm: unknown wal record kind %q", body[0])
	}
	return nil
}

// lastIndex is the highest log index present (snapshot base when empty).
func (st *storage) lastIndex() uint64 {
	return st.snap.Index + uint64(len(st.entries))
}

// termAt reports the term of index i; ok is false when i is compacted away
// (below the snapshot) or beyond the log.
func (st *storage) termAt(i uint64) (uint64, bool) {
	switch {
	case i == st.snap.Index:
		return st.snap.Term, true
	case i < st.snap.Index || i > st.lastIndex():
		return 0, false
	default:
		return st.entries[i-st.snap.Index-1].Term, true
	}
}

// entryAt returns the entry at index i, which must be in (snap, last].
func (st *storage) entryAt(i uint64) Entry {
	return st.entries[i-st.snap.Index-1]
}

// dropFrom discards in-memory entries with index >= from.
func (st *storage) dropFrom(from uint64) {
	if from <= st.snap.Index {
		from = st.snap.Index + 1
	}
	if from > st.lastIndex() {
		return
	}
	st.entries = st.entries[:from-st.snap.Index-1]
}

// append persists es (one fsynced record) and extends the in-memory log.
// es must be contiguous with the current tail.
func (st *storage) append(es []Entry) error {
	if len(es) == 0 {
		return nil
	}
	if _, err := st.log.Append(EncodeEntries(es)); err != nil {
		return err
	}
	st.entries = append(st.entries, es...)
	return nil
}

// truncateFrom persists a truncation marker and drops the suffix >= from.
func (st *storage) truncateFrom(from uint64) error {
	if _, err := st.log.Append(EncodeTruncate(from)); err != nil {
		return err
	}
	st.dropFrom(from)
	return nil
}

// saveHardState persists (term, votedFor) before it takes effect anywhere:
// a vote must survive a crash or the node could vote twice in one term.
func (st *storage) saveHardState(term uint64, votedFor string) error {
	if st.log != nil {
		if _, err := st.log.Append(EncodeHardState(term, votedFor)); err != nil {
			return err
		}
	}
	st.term, st.votedFor = term, votedFor
	return nil
}

// checkpoint atomically writes the complete durable image (meta, SM data,
// hard state, log tail) and then Resets the WAL. Crash ordering: before
// the rename the old checkpoint + full WAL survive; after it the new
// checkpoint alone reconstructs everything, so a half-finished Reset only
// leaves redundant records that fold to the same state.
func (st *storage) checkpoint(meta SnapMeta, data []byte, tail []Entry) error {
	err := wal.WriteSnapshotFile(st.fs, st.dir, snapName, func(add func(body []byte) error) error {
		if err := add(EncodeSnapMeta(meta)); err != nil {
			return err
		}
		if err := add(EncodeHardState(st.term, st.votedFor)); err != nil {
			return err
		}
		if err := add(EncodeEntries(tail)); err != nil {
			return err
		}
		return add(data)
	})
	if err != nil {
		return err
	}
	if err := st.log.Reset(); err != nil {
		return err
	}
	st.snap = meta
	st.snapData = data
	st.entries = tail
	return nil
}

// compact checkpoints at meta.Index (which must be applied) keeping the
// tail above it, then drops the WAL.
func (st *storage) compact(meta SnapMeta, data []byte) error {
	var tail []Entry
	if n := st.lastIndex() - meta.Index; n > 0 {
		tail = append(make([]Entry, 0, n), st.entries[meta.Index-st.snap.Index:]...)
	}
	return st.checkpoint(meta, data, tail)
}

// install replaces all local state with a leader-shipped snapshot.
func (st *storage) install(meta SnapMeta, data []byte) error {
	return st.checkpoint(meta, data, nil)
}

// pass moves the log past e without keeping it: what a group of one with
// no log does with an entry it applies, since no follower will ask for it
// and no restart will read it.
func (st *storage) pass(e Entry) {
	st.snap = SnapMeta{Index: e.Index, Term: e.Term}
}

func (st *storage) close() error {
	if st.log == nil {
		return nil
	}
	return st.log.Close()
}
