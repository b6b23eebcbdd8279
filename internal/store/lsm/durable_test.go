package lsm

import (
	"bytes"
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
		s, err := New(Options{
			Dir: "lsm", FS: wal.NewMemFS(), Durable: true,
			MemtableBytes: 256, SyncCompaction: true, FanoutLimit: 2, MaxLevels: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	})
}

// TestCrashRestartKeepsAckedWrites is the core durability contract for the
// LSM engine: every acked Put/Delete survives a kill-9-style crash —
// whether its record still sits in the WAL or already reached an sstable.
func TestCrashRestartKeepsAckedWrites(t *testing.T) {
	fs := faultfs.New(11)
	open := func() *Store {
		s, err := New(Options{
			Dir: "node", FS: fs, Durable: true,
			MemtableBytes: 512, SyncCompaction: true, FanoutLimit: 2, MaxLevels: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	type w struct {
		val     string
		ver     uint64
		deleted bool
	}
	acked := map[string]w{}
	var maxAcked uint64
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%03d", i%50)
		if i%9 == 4 {
			_, ver, err := s.Delete([]byte(key), 0)
			if err != nil {
				t.Fatal(err)
			}
			acked[key] = w{ver: ver, deleted: true}
			if ver > maxAcked {
				maxAcked = ver
			}
			continue
		}
		val := fmt.Sprintf("v%d", i)
		ver, err := s.Put([]byte(key), []byte(val), 0)
		if err != nil {
			t.Fatal(err)
		}
		acked[key] = w{val: val, ver: ver}
		if ver > maxAcked {
			maxAcked = ver
		}
	}
	// kill -9: freeze so Close's flush can't reach "disk", then crash.
	fs.Freeze()
	s.Close()
	fs.Crash()

	s2 := open()
	defer s2.Close()
	for key, want := range acked {
		val, ver, found, err := s2.AppendGet(nil, []byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if want.deleted {
			if found {
				t.Fatalf("%s: deleted key resurrected as %q", key, val)
			}
			continue
		}
		if !found {
			t.Fatalf("%s: acked write lost after crash", key)
		}
		if string(val) != want.val || ver != want.ver {
			t.Fatalf("%s = %q v%d, want %q v%d", key, val, ver, want.val, want.ver)
		}
	}
	if got := s2.RecoveredVersion(); got < maxAcked {
		t.Fatalf("RecoveredVersion = %d, want >= %d", got, maxAcked)
	}
}

// TestTornCrashRecovers checks that a crash tearing the final unsynced
// bytes still recovers every acked write, across several tear seeds.
func TestTornCrashRecovers(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		fs := faultfs.New(seed)
		s, err := New(Options{
			Dir: "node", FS: fs, Durable: true,
			MemtableBytes: 1 << 20, SyncCompaction: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if _, err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
				t.Fatal(err)
			}
		}
		fs.Freeze()
		s.Close()
		fs.CrashTorn()

		s2, err := New(Options{Dir: "node", FS: fs, Durable: true, SyncCompaction: true})
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("k%02d", i)
			val, _, found, err := s2.AppendGet(nil, []byte(key))
			if err != nil {
				t.Fatal(err)
			}
			if !found || string(val) != fmt.Sprintf("v%d", i) {
				t.Fatalf("seed %d: %s = %q found=%v, want v%d", seed, key, val, found, i)
			}
		}
		s2.Close()
	}
}

// TestWALDroppedAfterFlush checks the segment GC: once memtables reach
// fsynced sstables, their WAL segments are removed, so the log does not
// grow with the write volume.
func TestWALDroppedAfterFlush(t *testing.T) {
	fs := wal.NewMemFS()
	s, err := New(Options{
		Dir: "node", FS: fs, Durable: true,
		MemtableBytes: 256, SyncCompaction: true, WalSegmentBytes: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte("x"), 32), 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if segs := s.WAL().Segments(); segs > 2 {
		t.Fatalf("WAL holds %d segments after full flush, want <= 2 (flushed segments not dropped)", segs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSSTablesSurviveCrash checks the flush path's own durability: after a
// flush, a crash that drops all unsynced data must still reopen with the
// flushed records, because persist fsyncs the table file and the directory
// rename before the WAL lets go of the covering segments.
func TestSSTablesSurviveCrash(t *testing.T) {
	fs := faultfs.New(3)
	s, err := New(Options{
		Dir: "node", FS: fs, Durable: true,
		MemtableBytes: 1 << 20, SyncCompaction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush() // everything now in an sstable; WAL segments dropped
	fs.Freeze()
	s.Close()
	fs.Crash()

	s2, err := New(Options{Dir: "node", FS: fs, Durable: true, SyncCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 50 {
		t.Fatalf("Len after crash = %d, want 50", got)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%02d", i)
		val, _, found, err := s2.AppendGet(nil, []byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if !found || string(val) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s = %q found=%v", key, val, found)
		}
	}
}

// TestCleanCloseFlushesMemtable checks the clean-shutdown satellite for a
// non-durable on-disk store: Close flushes the memtable, so no WAL is
// needed to survive a graceful restart.
func TestCleanCloseFlushesMemtable(t *testing.T) {
	fs := wal.NewMemFS()
	s, err := New(Options{Dir: "node", FS: fs, SyncCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Delete([]byte("k05"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{Dir: "node", FS: fs, SyncCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 29 {
		t.Fatalf("Len after clean restart = %d, want 29", got)
	}
	if _, _, found, _ := s2.AppendGet(nil, []byte("k05")); found {
		t.Fatal("deleted key resurrected after clean restart")
	}
}

// TestSnapshotDeltaSurvivesCompaction checks the incremental-rejoin feed:
// the store lists exactly the records newer than a watermark (live and
// tombstones), and still does after the tombstone was compacted into the
// bottom level.
func TestSnapshotDeltaSurvivesCompaction(t *testing.T) {
	s, err := New(Options{
		Dir: "node", FS: wal.NewMemFS(), Durable: true,
		MemtableBytes: 1 << 20, SyncCompaction: true, FanoutLimit: 1, MaxLevels: 2,
	})
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
	delta := func() map[string]bool {
		t.Helper()
		got := map[string]bool{} // key -> tombstone
		if err := s.Snapshot(mark, func(kv store.KV, tomb bool) error {
			got[string(kv.Key)] = tomb
			return nil
		}); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		return got
	}
	if got := delta(); len(got) != 2 || got["k3"] != false || got["k5"] != true {
		t.Fatalf("delta = %v, want {k3:live, k5:tombstone}", got)
	}

	// Push the tombstone into the bottom level: two flushed tables exceed
	// FanoutLimit 1 and compact into it.
	s.Flush()
	if _, err := s.Put([]byte("kx"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatal("no compaction into the bottom level")
	}
	if got := delta(); len(got) != 3 || got["k3"] != false || got["k5"] != true || got["kx"] != false {
		t.Fatalf("delta after compaction = %v, want {k3:live, k5:tombstone, kx:live}", got)
	}
}

// TestPersistFailureKeepsWAL checks the failure latch: when an sstable
// persist fails, WAL segments are retained (not dropped, not reset on
// close) so a restart can re-replay what never reached a table.
func TestPersistFailureKeepsWAL(t *testing.T) {
	fs := faultfs.New(5)
	s, err := New(Options{
		Dir: "node", FS: fs, Durable: true,
		MemtableBytes: 256, SyncCompaction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("k%02d", i)), bytes.Repeat([]byte("x"), 24), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Every subsequent data-file sync fails; WAL appends already happened
	// for the records above, and the flush below must fail to persist.
	fs.FailSyncs(0, faultfs.ErrInjected)
	s.Flush()
	fs.FailSyncs(-1, nil)
	s.mu.Lock()
	latched := s.persistFailed
	s.mu.Unlock()
	if !latched {
		t.Fatal("persist failure did not latch")
	}
	s.Close()
	fs.Crash()

	s2, err := New(Options{Dir: "node", FS: fs, Durable: true, SyncCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%02d", i)
		if _, _, found, _ := s2.AppendGet(nil, []byte(key)); !found {
			t.Fatalf("%s lost: WAL was dropped despite persist failure", key)
		}
	}
}

// benchParallelPut drives concurrent unique-key writes — the shape that
// lets WAL group commit amortize one fsync over many appenders.
func benchParallelPut(b *testing.B, s *Store) {
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
	s, err := New(Options{MemtableBytes: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	benchParallelPut(b, s)
}

// BenchmarkPutDurableParallel measures the WAL-ed LSM under concurrent
// writers over faultfs (in-process, so the number isolates the
// group-commit machinery, not a device's fsync latency). The acceptance
// bar is within ~2x of BenchmarkPutMemoryParallel.
func BenchmarkPutDurableParallel(b *testing.B) {
	s, err := New(Options{Dir: "bench", FS: faultfs.New(1), Durable: true, MemtableBytes: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	benchParallelPut(b, s)
}
