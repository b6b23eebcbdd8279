package sharedlog

import (
	"encoding/json"
	"errors"
	"time"

	"bespokv/internal/rsm"
)

// proposeTimeout bounds one replicated append; the shared log's data
// path is the AA+EC write path, so this is generous — anything slower
// means the sequencer group has no quorum.
const proposeTimeout = 5 * time.Second

// logCmd is one replicated log entry: an appended batch. The sequencer
// counter advances exactly by its length, and the retention window drops
// the segments it pushes out, in commit order, identically on every member.
type logCmd struct {
	Stream  string   `json:"stream,omitempty"`
	Entries [][]byte `json:"entries,omitempty"`
}

// streamSnapshot is one stream's checkpoint image: retained entries plus
// the sequencer counter and trim floor.
type streamSnapshot struct {
	Next    uint64  `json:"next"`
	Trimmed uint64  `json:"trimmed"`
	Entries []Entry `json:"entries,omitempty"`
}

// leaderCheck gates appends: in replicated mode only the leader
// sequences, everyone else redirects. Callers must not hold s.mu.
func (s *Server) leaderCheck() error {
	if s.node == nil || s.node.IsLeader() {
		return nil
	}
	return s.node.NotLeaderErr()
}

// submitAppend puts the batch in the replicated log without waiting for it
// to commit; args.Entries may alias an rpc frame, the command copies them.
func (s *Server) submitAppend(args AppendArgs) (rsm.Proposal, error) {
	b, err := json.Marshal(logCmd{Stream: args.Stream, Entries: args.Entries})
	if err != nil {
		return rsm.Proposal{}, err
	}
	return s.node.Submit(b)
}

// appendCommitted waits for a submitted batch to apply.
func appendCommitted(p rsm.Proposal) (AppendReply, error) {
	res, err := p.Wait(proposeTimeout)
	if err != nil {
		return AppendReply{}, err
	}
	reply, ok := res.(AppendReply)
	if !ok {
		return AppendReply{}, errors.New("sharedlog: append not applied")
	}
	return reply, nil
}

// logSM adapts the stream table to the rsm.StateMachine interface. Apply
// runs on every member with the RSM internals locked, so it only touches
// s.mu-guarded state and never calls back into the RSM node. Each member
// wakes its own long-pollers on apply, which is how followers serve
// subscriptions at one-RPC propagation latency.
type logSM struct{ s *Server }

func (m logSM) Apply(index uint64, cmd []byte) any {
	var op logCmd
	if err := json.Unmarshal(cmd, &op); err != nil {
		m.s.cfg.Logf("sharedlog: rsm entry %d undecodable: %v", index, err)
		return nil
	}
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	return m.s.applyAppendLocked(op.Stream, op.Entries)
}

func (m logSM) Snapshot() []byte {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	snap := map[string]streamSnapshot{}
	for name, st := range m.s.streams {
		ss := streamSnapshot{Next: st.next, Trimmed: st.trimmed}
		for _, seg := range st.segs {
			for i := 0; i < seg.count(); i++ {
				ss.Entries = append(ss.Entries, seg.entry(i))
			}
		}
		snap[name] = ss
	}
	b, err := json.Marshal(snap)
	if err != nil {
		m.s.cfg.Logf("sharedlog: rsm snapshot: %v", err)
		return nil
	}
	return b
}

func (m logSM) Restore(data []byte) {
	snap := map[string]streamSnapshot{}
	if len(data) > 0 {
		if err := json.Unmarshal(data, &snap); err != nil {
			m.s.cfg.Logf("sharedlog: rsm restore: %v", err)
			return
		}
	}
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	for name, st := range m.s.streams {
		// Wake stranded long-pollers; they re-read the restored state.
		close(st.tailCh)
		st.tailCh = make(chan struct{})
		if _, ok := snap[name]; !ok {
			delete(m.s.streams, name)
		}
	}
	for name, ss := range snap {
		st := m.s.streamLocked(name)
		st.next, st.trimmed, st.segs = ss.Trimmed, ss.Trimmed, nil
		for _, e := range ss.Entries {
			// Rebuild the arenas at the snapshot's offsets; entries are in
			// order but may start above the trim floor.
			m.s.storeLocked(st, e.Offset, e.Data)
		}
		st.next = ss.Next
	}
}
