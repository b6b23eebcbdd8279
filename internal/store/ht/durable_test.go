package ht

import (
	"fmt"
	"sync/atomic"
	"testing"

	"bespokv/internal/store"
	"bespokv/internal/store/enginetest"
	"bespokv/internal/store/faultfs"
	"bespokv/internal/store/wal"
)

func TestDurableConformance(t *testing.T) {
	enginetest.Run(t, func(t *testing.T) store.Engine {
		s, err := Open(Options{Dir: "ht", FS: wal.NewMemFS()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	})
}

func TestDurableConformanceSmallCheckpoints(t *testing.T) {
	enginetest.Run(t, func(t *testing.T) store.Engine {
		s, err := Open(Options{Dir: "ht", FS: wal.NewMemFS(), CheckpointEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	})
}

// TestCrashRestartKeepsAckedWrites is the core durability contract: every
// Put that returned survives a kill-9-style crash (freeze, close, revert
// to durable image) and restart.
func TestCrashRestartKeepsAckedWrites(t *testing.T) {
	fs := faultfs.New(7)
	s, err := Open(Options{Dir: "node", FS: fs, CheckpointEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	type w struct {
		key, val string
		ver      uint64
		deleted  bool
	}
	acked := map[string]w{}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%03d", i%40)
		val := fmt.Sprintf("v%d", i)
		if i%7 == 3 {
			_, ver, err := s.Delete([]byte(key), 0)
			if err != nil {
				t.Fatal(err)
			}
			acked[key] = w{key: key, ver: ver, deleted: true}
			continue
		}
		ver, err := s.Put([]byte(key), []byte(val), 0)
		if err != nil {
			t.Fatal(err)
		}
		acked[key] = w{key: key, val: val, ver: ver}
	}
	wantWatermark := s.MaxVersion()

	fs.Freeze()
	s.Close()
	fs.Crash()

	s2, err := Open(Options{Dir: "node", FS: fs, CheckpointEvery: 20})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s2.Close()
	if got := s2.RecoveredVersion(); got < wantWatermark {
		t.Fatalf("recovered watermark %d < acked max version %d", got, wantWatermark)
	}
	for key, want := range acked {
		val, ver, ok, err := s2.AppendGet(nil, []byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if want.deleted {
			if ok {
				t.Fatalf("key %s: deleted before crash but resurrected as %q", key, val)
			}
			continue
		}
		if !ok {
			t.Fatalf("key %s: acked write lost in crash", key)
		}
		if string(val) != want.val || ver != want.ver {
			t.Fatalf("key %s: got (%q, v%d), want (%q, v%d)", key, val, ver, want.val, want.ver)
		}
	}
}

// TestTornCrashRecoversConsistentPrefix crashes with a torn final record;
// the store must reopen cleanly with every acked write intact (the torn
// bytes belong to no acked write, because Append acks only after fsync).
func TestTornCrashRecoversConsistentPrefix(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		fs := faultfs.New(seed)
		s, err := Open(Options{Dir: "node", FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if _, err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"), 0); err != nil {
				t.Fatal(err)
			}
		}
		fs.Freeze()
		s.Close()
		fs.CrashTorn()

		s2, err := Open(Options{Dir: "node", FS: fs})
		if err != nil {
			t.Fatalf("seed %d: reopen after torn crash: %v", seed, err)
		}
		for i := 0; i < 50; i++ {
			key := fmt.Sprintf("k%03d", i)
			if _, _, ok, err := s2.AppendGet(nil, []byte(key)); err != nil || !ok {
				t.Fatalf("seed %d: acked key %s lost after torn crash (ok=%v err=%v)", seed, key, ok, err)
			}
		}
		s2.Close()
	}
}

// TestCheckpointBoundsWAL verifies checkpoints reset the log so replay
// stays O(CheckpointEvery) instead of O(history).
func TestCheckpointBoundsWAL(t *testing.T) {
	fs := wal.NewMemFS()
	s, err := Open(Options{Dir: "node", FS: fs, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 95; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("k%02d", i%20)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	appends, _ := s.WAL().Stats()
	if appends != 95 {
		t.Fatalf("wal appends = %d, want 95", appends)
	}
	s.Close()

	// Reopen: replay must see only the post-checkpoint tail, and state
	// must still be complete.
	s2, err := Open(Options{Dir: "node", FS: fs, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 20 {
		t.Fatalf("Len after checkpointed reopen = %d, want 20", got)
	}
	names, err := fs.ReadDir(wal.Join("node", "wal"))
	if err != nil {
		t.Fatal(err)
	}
	// 95 writes with a checkpoint every 10 leaves at most 10 records (one
	// active segment) in the log.
	if len(names) > 1 {
		t.Fatalf("wal has %d segments after checkpoints, want 1: %v", len(names), names)
	}
}

// TestCrashBetweenCheckpointAndReset simulates the crash window after the
// checkpoint rename but before the WAL reset: replaying the stale WAL over
// the fresh checkpoint must be a no-op thanks to LWW idempotency.
func TestCrashBetweenCheckpointAndReset(t *testing.T) {
	fs := faultfs.New(3)
	s, err := Open(Options{Dir: "node", FS: fs, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Manual checkpoint, then crash with the WAL still holding all 30
	// records (faultfs keeps the pre-reset WAL durable only up to what was
	// fsynced — the appends were, the removal may not be).
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs.Freeze()
	s.Close()
	fs.Crash()

	s2, err := Open(Options{Dir: "node", FS: fs, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 30 {
		t.Fatalf("Len = %d, want 30", got)
	}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%02d", i)
		val, _, ok, _ := s2.AppendGet(nil, []byte(key))
		if !ok || string(val) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %s = (%q, %v) after checkpoint-window crash", key, val, ok)
		}
	}
}

// TestSnapshotDelta: a durable table lists exactly the records newer than
// a watermark, the deletion among them as a tombstone.
func TestSnapshotDelta(t *testing.T) {
	s, err := Open(Options{Dir: "ht", FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	mark := s.MaxVersion()
	if _, err := s.Put([]byte("k3"), []byte("new"), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Delete([]byte("k5"), 0); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{} // key -> tombstone
	err = s.Snapshot(mark, func(kv store.KV, tomb bool) error {
		got[string(kv.Key)] = tomb
		return nil
	})
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if len(got) != 2 || got["k3"] || !got["k5"] {
		t.Fatalf("delta = %v, want k3 live + k5 tombstone only", got)
	}
}

// benchParallelPut drives concurrent unique-key writes — the shape that
// lets WAL group commit amortize one fsync over many appenders.
func benchParallelPut(b *testing.B, s store.Engine) {
	b.Helper()
	var seq atomic.Uint64
	val := []byte("benchmark-value-0123456789abcdef")
	b.SetParallelism(16) // concurrent writers even on one proc: the group-commit shape
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := []byte(fmt.Sprintf("key-%012d", seq.Add(1)))
			if _, err := s.Put(k, val, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPutMemoryParallel is the in-memory baseline for the durable
// comparison below (same workload, no WAL).
func BenchmarkPutMemoryParallel(b *testing.B) {
	s := New()
	defer s.Close()
	benchParallelPut(b, s)
}

// BenchmarkPutDurableParallel measures the WAL-ed hash table under
// concurrent writers over faultfs (in-process, so the number isolates the
// group-commit machinery, not a device's fsync latency). The acceptance
// bar is within ~2x of BenchmarkPutMemoryParallel.
func BenchmarkPutDurableParallel(b *testing.B) {
	s, err := Open(Options{Dir: "bench", FS: faultfs.New(1)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	benchParallelPut(b, s)
}
