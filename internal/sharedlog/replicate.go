package sharedlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"bespokv/internal/rpc"
)

// proposeTimeout bounds one replicated append; the shared log's data
// path is the AA+EC write path, so this is generous — anything slower
// means the sequencer group has no quorum.
const proposeTimeout = 5 * time.Second

// The sequencer's replicated command is an Append call's Wire payload: the
// stream, then the batch (AppendArgs' encoding). The sequencer counter
// advances exactly by the batch's length, and the retention window drops
// the segments it pushes out, in commit order, identically on every member.

// parseAppend reads an AppendArgs payload in place: its stream, and a
// reader at its n entries.
func parseAppend(cmd []byte) (stream []byte, r rpc.WireReader, n int) {
	r = rpc.NewWireReader(cmd)
	stream = r.Bytes()
	n = r.Count(1)
	return stream, r, n
}

// checkAppend validates an AppendArgs payload before it is logged or
// applied.
func checkAppend(cmd []byte) error {
	_, r, n := parseAppend(cmd)
	for i := 0; i < n; i++ {
		r.Bytes()
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("sharedlog: bad append: %w", err)
	}
	if n == 0 {
		return errors.New("sharedlog: empty append")
	}
	return nil
}

// logSM adapts the stream table to the rsm.StateMachine interface. Apply
// runs on every member with the RSM internals locked, so it only touches
// s.mu-guarded state and never calls back into the RSM node. Each member
// wakes its own long-pollers on apply, which is how followers serve
// subscriptions at one-RPC propagation latency.
type logSM struct{ s *Server }

func (m logSM) Apply(index uint64, cmd []byte) any {
	if err := checkAppend(cmd); err != nil {
		m.s.cfg.Logf("sharedlog: rsm entry %d undecodable: %v", index, err)
		return nil
	}
	stream, r, n := parseAppend(cmd)
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	return m.s.applyAppendLocked(stream, r, n)
}

// Snapshot encodes every stream, in name order, as its name, sequencer
// counter, trim floor and retained entries, the entries framed as in a
// ReadReply: a count, then each entry's offset and length-prefixed data.
func (m logSM) Snapshot() []byte {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	size := binary.MaxVarintLen64
	names := make([]string, 0, len(m.s.streams))
	for name, st := range m.s.streams {
		names = append(names, name)
		size += len(name) + 4*binary.MaxVarintLen64
		for _, seg := range st.segs {
			size += len(seg.data) + seg.count()*2*binary.MaxVarintLen64
		}
	}
	slices.Sort(names)
	dst := binary.AppendUvarint(make([]byte, 0, size), uint64(len(names)))
	for _, name := range names {
		st := m.s.streams[name]
		dst = rpc.AppendWireBytes(dst, name)
		dst = binary.AppendUvarint(dst, st.next)
		dst = binary.AppendUvarint(dst, st.trimmed)
		count := 0
		for _, seg := range st.segs {
			count += seg.count()
		}
		dst = binary.AppendUvarint(dst, uint64(count))
		for _, seg := range st.segs {
			for i := 0; i < seg.count(); i++ {
				e := seg.entry(i)
				dst = binary.AppendUvarint(dst, e.Offset)
				dst = rpc.AppendWireBytes(dst, e.Data)
			}
		}
	}
	return dst
}

// streamImage is one stream of a checkpoint; entries alias the checkpoint.
type streamImage struct {
	name          []byte
	next, trimmed uint64
	entries       []Entry
}

// parseSnapshot decodes a checkpoint. It comes from disk or a peer, so
// every count is checked against the bytes left before anything is
// allocated for it, and a stream's entries must lie in order inside
// [trimmed, next).
func parseSnapshot(data []byte) ([]streamImage, error) {
	if len(data) == 0 {
		return nil, nil
	}
	r := rpc.NewWireReader(data)
	imgs := make([]streamImage, r.Count(4)) // name, next, trimmed, count
	for i := range imgs {
		img := &imgs[i]
		img.name, img.next, img.trimmed = r.Bytes(), r.Uvarint(), r.Uvarint()
		if img.trimmed > img.next {
			return nil, fmt.Errorf("sharedlog: checkpoint floor %d above its tail %d", img.trimmed, img.next)
		}
		img.entries = make([]Entry, r.Count(2))
		low := img.trimmed
		for j := range img.entries {
			e := Entry{Offset: r.Uvarint(), Data: r.Bytes()}
			if e.Offset < low || e.Offset >= img.next {
				return nil, fmt.Errorf("sharedlog: checkpoint entry at %d outside [%d, %d)", e.Offset, low, img.next)
			}
			low = e.Offset + 1
			img.entries[j] = e
		}
	}
	return imgs, r.Done()
}

func (m logSM) Restore(data []byte) {
	imgs, err := parseSnapshot(data)
	if err != nil {
		m.s.cfg.Logf("sharedlog: rsm restore: %v", err)
		return
	}
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	for _, st := range m.s.streams {
		// Wake stranded long-pollers; they re-read the restored state.
		close(st.tailCh)
	}
	clear(m.s.streams)
	for _, img := range imgs {
		st := m.s.streamLocked(img.name)
		st.trimmed = img.trimmed
		for _, e := range img.entries {
			// Rebuild the arenas at the snapshot's offsets; entries are in
			// order but may start above the trim floor.
			m.s.storeLocked(st, e.Offset, e.Data)
		}
		st.next = img.next
	}
}
