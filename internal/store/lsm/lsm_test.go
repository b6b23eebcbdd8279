package lsm

import (
	"fmt"
	"path/filepath"
	"testing"

	"bespokv/internal/store"
	"bespokv/internal/store/enginetest"
)

func TestConformanceMemory(t *testing.T) {
	enginetest.Run(t, func(t *testing.T) store.Engine {
		s, err := New(Options{SyncCompaction: true, MemtableBytes: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestConformanceBackgroundCompaction(t *testing.T) {
	enginetest.Run(t, func(t *testing.T) store.Engine {
		s, err := New(Options{MemtableBytes: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestConformanceDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("disk conformance in -short mode")
	}
	enginetest.Run(t, func(t *testing.T) store.Engine {
		s, err := New(Options{Dir: t.TempDir(), SyncCompaction: true, MemtableBytes: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestFlushAndCompactionTriggered(t *testing.T) {
	s, err := New(Options{SyncCompaction: true, MemtableBytes: 4096, FanoutLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		if _, err := s.Put(k, make([]byte, 64), 0); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Flushes == 0 {
		t.Fatal("no memtable flushes happened")
	}
	if st.Compactions == 0 {
		t.Fatal("no compactions happened")
	}
	if st.CompactionBytes == 0 {
		t.Fatal("compaction byte counter not advancing")
	}
	// Every key still readable after flush/compaction churn.
	for i := 0; i < n; i += 97 {
		k := []byte(fmt.Sprintf("key-%06d", i))
		if _, _, ok, err := s.AppendGet(nil, k); err != nil || !ok {
			t.Fatalf("Get(%q) after compaction: ok=%v err=%v", k, ok, err)
		}
	}
}

func TestOverwritesResolveAcrossTables(t *testing.T) {
	s, err := New(Options{SyncCompaction: true, MemtableBytes: 2048, FanoutLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Rewrite the same small key set across many flush boundaries.
	for round := 0; round < 40; round++ {
		for i := 0; i < 10; i++ {
			k := []byte(fmt.Sprintf("k%02d", i))
			if _, err := s.Put(k, []byte(fmt.Sprintf("round-%02d", round)), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		v, _, ok, err := s.AppendGet(nil, k)
		if err != nil || !ok || string(v) != "round-39" {
			t.Fatalf("Get(%q) = (%q,%v,%v), want round-39", k, v, ok, err)
		}
	}
	if got := s.Len(); got != 10 {
		t.Fatalf("Len=%d, want 10", got)
	}
}

// TestTombstonesKeptAtBottomLevel deletes every key it writes, lets the
// tables compact into the single bottom level, then replays older
// versions of the deleted keys: none comes back, because the bottom level
// keeps the tombstones.
func TestTombstonesKeptAtBottomLevel(t *testing.T) {
	s, err := New(Options{SyncCompaction: true, MemtableBytes: 1024, FanoutLimit: 1, MaxLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		s.Put(k, make([]byte, 32), uint64(1000+2*i))
		s.Delete(k, uint64(1001+2*i))
	}
	s.Flush()
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatal("nothing compacted into the bottom level")
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len=%d, want 0 after delete-all", got)
	}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		s.Put(k, []byte("zombie"), uint64(1000+2*i))
		if _, _, ok, _ := s.AppendGet(nil, k); ok {
			t.Fatalf("%s came back after its tombstone reached the bottom level", k)
		}
	}
}

func TestScanMergesLevels(t *testing.T) {
	s, err := New(Options{SyncCompaction: true, MemtableBytes: 1024, FanoutLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 300; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		s.Put(k, []byte("old"), 0)
	}
	// Overwrite a band; some of these stay in the memtable.
	for i := 100; i < 150; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		s.Put(k, []byte("new"), 0)
	}
	kvs, err := s.Scan([]byte("k095"), []byte("k105"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("scan returned %d keys, want 10", len(kvs))
	}
	for _, kv := range kvs {
		want := "old"
		if string(kv.Key) >= "k100" {
			want = "new"
		}
		if string(kv.Value) != want {
			t.Fatalf("scan %q = %q, want %q", kv.Key, kv.Value, want)
		}
	}
}

func TestDiskRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, SyncCompaction: true, MemtableBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)), 0)
	}
	s.Delete([]byte("k000"), 0)
	s.Flush() // persist the final memtable too
	s.Close()

	matches, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	if len(matches) == 0 {
		t.Fatal("no persisted sstables")
	}

	re, err := New(Options{Dir: dir, SyncCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, _, ok, _ := re.AppendGet(nil, []byte("k000")); ok {
		t.Fatal("deleted key resurrected after recovery")
	}
	v, _, ok, _ := re.AppendGet(nil, []byte("k199"))
	if !ok || string(v) != "v199" {
		t.Fatalf("k199 after recovery = (%q,%v)", v, ok)
	}
	if got := re.Len(); got != 199 {
		t.Fatalf("Len=%d after recovery, want 199", got)
	}
}

func TestBloomFilter(t *testing.T) {
	b := newBloom(1000)
	for i := 0; i < 1000; i++ {
		b.add([]byte(fmt.Sprintf("present-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain([]byte(fmt.Sprintf("present-%d", i))) {
			t.Fatalf("false negative for present-%d", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if b.mayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	if fp > 500 { // 5%, well above the ~1% design point
		t.Fatalf("bloom false positive rate too high: %d/10000", fp)
	}
}

func TestWriteAmplificationVisible(t *testing.T) {
	s, err := New(Options{SyncCompaction: true, MemtableBytes: 2048, FanoutLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var logical int64
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v := make([]byte, 64)
		s.Put(k, v, 0)
		logical += int64(len(k) + len(v))
	}
	s.Flush()
	st := s.Stats()
	if st.CompactionBytes <= logical {
		t.Fatalf("write amplification missing: compacted %d <= logical %d", st.CompactionBytes, logical)
	}
}

func BenchmarkPut(b *testing.B) {
	s, _ := New(Options{MemtableBytes: 8 << 20})
	defer s.Close()
	val := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put([]byte(fmt.Sprintf("key-%09d", i)), val, 0)
	}
}

func BenchmarkGet(b *testing.B) {
	s, _ := New(Options{SyncCompaction: true, MemtableBytes: 1 << 18})
	defer s.Close()
	const n = 100000
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("key-%09d", i)), make([]byte, 32), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AppendGet(nil, []byte(fmt.Sprintf("key-%09d", i%n)))
	}
}
