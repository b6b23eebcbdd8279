package applog

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bespokv/internal/store"
	"bespokv/internal/store/enginetest"
)

func TestConformanceMemory(t *testing.T) {
	enginetest.Run(t, func(t *testing.T) store.Engine {
		s, err := New(Options{})
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
		s, err := New(Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestRecoveryReplaysLog(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		if _, err := s.Put([]byte(k), []byte("v"+k), 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete([]byte("k000"), 0)
	s.Put([]byte("k001"), []byte("updated"), 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 99 {
		t.Fatalf("recovered Len=%d, want 99", re.Len())
	}
	if _, _, ok, _ := re.AppendGet(nil, []byte("k000")); ok {
		t.Fatal("deleted key resurrected by replay")
	}
	v, _, ok, _ := re.AppendGet(nil, []byte("k001"))
	if !ok || string(v) != "updated" {
		t.Fatalf("k001 = (%q,%v) after replay", v, ok)
	}
	v, _, ok, _ = re.AppendGet(nil, []byte("k099"))
	if !ok || string(v) != "vk099" {
		t.Fatalf("k099 = (%q,%v) after replay", v, ok)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("good"), []byte("value"), 0)
	s.Close()

	// Append garbage emulating a torn write at the tail.
	matches, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(matches) != 1 {
		t.Fatalf("want 1 segment, got %v", matches)
	}
	f, err := os.OpenFile(matches[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}) // claims 16-byte body, truncated
	f.Close()

	re, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatalf("replay must survive torn tail: %v", err)
	}
	defer re.Close()
	v, _, ok, _ := re.AppendGet(nil, []byte("good"))
	if !ok || string(v) != "value" {
		t.Fatalf("intact record lost: (%q,%v)", v, ok)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if _, err := s.Put([]byte(k), make([]byte, 100), 0); err != nil {
			t.Fatal(err)
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(matches) < 5 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(matches))
	}
	// All keys still readable across segments.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if _, _, ok, err := s.AppendGet(nil, []byte(k)); err != nil || !ok {
			t.Fatalf("Get(%q) after rotation: ok=%v err=%v", k, ok, err)
		}
	}
}

func TestCompactShrinksAndPreservesData(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Overwrite the same keys many times to accumulate garbage.
	for round := 0; round < 20; round++ {
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("k%02d", i)
			if _, err := s.Put([]byte(k), []byte(fmt.Sprintf("r%02d", round)), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Delete([]byte("k00"), 0)
	if s.GarbageRatio() < 0.5 {
		t.Fatalf("expected garbage, ratio=%f", s.GarbageRatio())
	}
	before, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(after) >= len(before) {
		t.Fatalf("compaction did not shrink: %d -> %d segments", len(before), len(after))
	}
	if s.GarbageRatio() != 0 {
		t.Fatalf("garbage after compaction: %f", s.GarbageRatio())
	}
	if _, _, ok, _ := s.AppendGet(nil, []byte("k00")); ok {
		t.Fatal("deleted key visible after compaction")
	}
	for i := 1; i < 20; i++ {
		k := fmt.Sprintf("k%02d", i)
		v, _, ok, err := s.AppendGet(nil, []byte(k))
		if err != nil || !ok || string(v) != "r19" {
			t.Fatalf("Get(%q) after compaction = (%q,%v,%v)", k, v, ok, err)
		}
	}
	if s.Len() != 19 {
		t.Fatalf("Len=%d after compaction, want 19", s.Len())
	}
}

func TestCompactionSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Put([]byte(fmt.Sprintf("k%02d", i%10)), []byte(fmt.Sprintf("v%02d", i)), 0)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("post"), []byte("compact"), 0)
	s.Close()

	re, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 11 {
		t.Fatalf("Len=%d after replaying compacted log, want 11", re.Len())
	}
	v, _, ok, _ := re.AppendGet(nil, []byte("post"))
	if !ok || string(v) != "compact" {
		t.Fatalf("post-compaction write lost: (%q,%v)", v, ok)
	}
}

func TestAutoCompaction(t *testing.T) {
	s, err := New(Options{SegmentSize: 8 << 10, AutoCompactRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Overwrite a tiny key set far past the check interval so garbage
	// dominates and the auto-compactor must fire.
	for i := 0; i < 3*autoCompactEvery; i++ {
		k := []byte(fmt.Sprintf("k%02d", i%16))
		if _, err := s.Put(k, make([]byte, 64), 0); err != nil {
			t.Fatal(err)
		}
	}
	if ratio := s.GarbageRatio(); ratio > 0.6 {
		t.Fatalf("auto-compaction never fired: garbage ratio %.2f", ratio)
	}
	for i := 0; i < 16; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		if _, _, ok, err := s.AppendGet(nil, k); err != nil || !ok {
			t.Fatalf("Get(%s) after auto-compaction: ok=%v err=%v", k, ok, err)
		}
	}
	if s.Len() != 16 {
		t.Fatalf("Len=%d after auto-compaction, want 16", s.Len())
	}
}

func TestAutoCompactionDisabledByDefault(t *testing.T) {
	s, err := New(Options{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2*autoCompactEvery; i++ {
		s.Put([]byte("same"), make([]byte, 32), 0)
	}
	if ratio := s.GarbageRatio(); ratio < 0.9 {
		t.Fatalf("compaction ran without being enabled: ratio %.2f", ratio)
	}
}

func BenchmarkPutMemory(b *testing.B) {
	s, _ := New(Options{})
	defer s.Close()
	val := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("key-%09d", i))
		s.Put(k, val, 0)
	}
}

func BenchmarkGetMemory(b *testing.B) {
	s, _ := New(Options{})
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

// TestRecoveryTruncatesMidSegmentCorruption flips a byte inside a record
// in the middle of the segment: replay must verify every record's CRC,
// keep the intact prefix, physically truncate the segment at the first
// bad record, and keep working for new writes afterwards.
func TestRecoveryTruncatesMidSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	matches, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(matches) != 1 {
		t.Fatalf("want 1 segment, got %v", matches)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a body byte roughly halfway in (not a length header, so the
	// frame walk still lines up and the CRC is what catches it).
	raw[len(raw)/2+recordHeaderSize] ^= 0xff
	if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatalf("replay must survive mid-segment corruption: %v", err)
	}
	// The segment must now be physically shorter than the corrupt image.
	st, err := os.Stat(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= int64(len(raw)) {
		t.Fatalf("segment not truncated: %d bytes, corrupt image was %d", st.Size(), len(raw))
	}
	// The prefix before the corruption survives intact.
	if v, _, ok, _ := re.AppendGet(nil, []byte("k00")); !ok || string(v) != "v0" {
		t.Fatalf("k00 = (%q,%v), want intact prefix", v, ok)
	}
	n := re.Len()
	if n == 0 || n >= 20 {
		t.Fatalf("Len after truncation = %d, want a proper prefix (0 < n < 20)", n)
	}
	// New writes append cleanly after the repair and survive a replay.
	if _, err := re.Put([]byte("post"), []byte("repair"), 0); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if v, _, ok, _ := re2.AppendGet(nil, []byte("post")); !ok || string(v) != "repair" {
		t.Fatalf("post-repair write lost: (%q,%v)", v, ok)
	}
	if got := re2.Len(); got != n+1 {
		t.Fatalf("Len after repair+write = %d, want %d", got, n+1)
	}
}
