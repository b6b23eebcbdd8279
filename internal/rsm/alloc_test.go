package rsm

import (
	"testing"

	"bespokv/internal/metrics"
	"bespokv/internal/store/wal"
)

// nopSM returns a pre-built result so the interface value costs nothing.
type nopSM struct {
	res any
	n   int
}

func (s *nopSM) Apply(index uint64, cmd []byte) any { s.n++; return s.res }
func (s *nopSM) Snapshot() []byte                   { return nil }
func (s *nopSM) Restore(data []byte)                {}

// applyNode builds a bare Node with entries committed-but-unapplied, the
// shape applyLocked sees when a commit advances.
func applyNode(tb testing.TB, entries int) (*Node, *nopSM) {
	tb.Helper()
	st, err := openStorage(wal.NewMemFS(), "rsm")
	if err != nil {
		tb.Fatal(err)
	}
	sm := &nopSM{res: any(1)}
	n := &Node{
		cfg:       Config{GroupConfig: GroupConfig{ID: "alloc", SnapshotEvery: 1 << 62}, SM: sm},
		st:        st,
		waiters:   map[uint64]waiter{},
		gIsLeader: metrics.Default.Gauge("bespokv_rsm_is_leader", "id", "alloc-test"),
		gTerm:     metrics.Default.Gauge("bespokv_rsm_term", "id", "alloc-test"),
		gCommit:   metrics.Default.Gauge("bespokv_rsm_commit_index", "id", "alloc-test"),
		gApplied:  metrics.Default.Gauge("bespokv_rsm_applied_index", "id", "alloc-test"),
	}
	es := make([]Entry, entries)
	payload := []byte("cmd")
	for i := range es {
		es[i] = Entry{Term: 1, Index: uint64(i + 1), Data: payload}
	}
	if err := st.append(es); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.close() })
	return n, sm
}

// TestApplyZeroAlloc gates the RSM hot path: feeding committed entries to
// the state machine must not allocate, so a burst of control-plane ops
// can't put the leader into GC pressure at the worst moment.
func TestApplyZeroAlloc(t *testing.T) {
	const runs = 512
	n, sm := applyNode(t, runs+8)
	allocs := testing.AllocsPerRun(runs, func() {
		n.mu.Lock()
		n.commitIndex++
		n.applyLocked()
		n.mu.Unlock()
	})
	if allocs > 0 {
		t.Fatalf("applyLocked allocates %.1f/op, want 0", allocs)
	}
	if sm.n == 0 {
		t.Fatal("state machine never applied")
	}
}

func BenchmarkRSMApply(b *testing.B) {
	n, _ := applyNode(b, b.N+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.mu.Lock()
		n.commitIndex++
		n.applyLocked()
		n.mu.Unlock()
	}
}
