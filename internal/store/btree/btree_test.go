package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"bespokv/internal/store"
	"bespokv/internal/store/enginetest"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, func(t *testing.T) store.Engine { return New() })
}

// TestManySplits inserts enough keys to force several levels of splits and
// verifies ordered iteration returns everything exactly once, sorted.
func TestManySplits(t *testing.T) {
	s := New()
	defer s.Close()
	const n = 20000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		k := fmt.Sprintf("key-%08d", i)
		if _, err := s.Put([]byte(k), []byte(k), 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len=%d, want %d", s.Len(), n)
	}
	kvs, err := s.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != n {
		t.Fatalf("scan returned %d, want %d", len(kvs), n)
	}
	for i := 1; i < len(kvs); i++ {
		if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
			t.Fatalf("scan out of order at %d: %q >= %q", i, kvs[i-1].Key, kvs[i].Key)
		}
	}
	for i := 0; i < n; i += 997 {
		k := fmt.Sprintf("key-%08d", i)
		v, _, ok, err := s.AppendGet(nil, []byte(k))
		if err != nil || !ok || string(v) != k {
			t.Fatalf("Get(%q) = (%q,%v,%v)", k, v, ok, err)
		}
	}
}

// TestTombstoneSurvivesSplit deletes a leaf's worth of keys, splits their
// leaves many times over with fresh keys, and then replays the deleted
// keys' older versions: every one stays deleted, because every tombstone
// is still in the tree.
func TestTombstoneSurvivesSplit(t *testing.T) {
	s := New()
	defer s.Close()
	for i := 0; i < degree-1; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		if _, err := s.Put(k, []byte("v"), 100); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Delete(k, 200); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10*degree; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("k%02d-%04d", i%(degree-1), i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < degree-1; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		if winner, err := s.Put(k, []byte("zombie"), 150); err != nil || winner != 200 {
			t.Fatalf("stale put of %s: winner=%d err=%v, want the tombstone's 200", k, winner, err)
		}
		if _, _, ok, _ := s.AppendGet(nil, k); ok {
			t.Fatalf("%s came back after its leaf split", k)
		}
	}
	if got, want := s.Items(), 11*degree-1; got != want {
		t.Fatalf("Items=%d, want %d (every tombstone kept)", got, want)
	}
}

func TestScanBoundsQuick(t *testing.T) {
	s := New()
	defer s.Close()
	const n = 500
	var keys []string
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%04d", rand.Intn(4000))
		keys = append(keys, k)
		if _, err := s.Put([]byte(k), []byte(k), 0); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(keys)
	uniq := keys[:0]
	for i, k := range keys {
		if i == 0 || keys[i-1] != k {
			uniq = append(uniq, k)
		}
	}
	for trial := 0; trial < 100; trial++ {
		lo := fmt.Sprintf("%04d", rand.Intn(4000))
		hi := fmt.Sprintf("%04d", rand.Intn(4000))
		kvs, err := s.Scan([]byte(lo), []byte(hi), 0)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, k := range uniq {
			if k >= lo && k < hi {
				want = append(want, k)
			}
		}
		if len(kvs) != len(want) {
			t.Fatalf("scan [%s,%s): got %d keys, want %d", lo, hi, len(kvs), len(want))
		}
		for i := range want {
			if string(kvs[i].Key) != want[i] {
				t.Fatalf("scan [%s,%s)[%d] = %q, want %q", lo, hi, i, kvs[i].Key, want[i])
			}
		}
	}
}

func TestSnapshotAllIncludesTombstones(t *testing.T) {
	s := New()
	defer s.Close()
	s.Put([]byte("a"), []byte("1"), 0)
	s.Put([]byte("b"), []byte("2"), 0)
	s.Delete([]byte("a"), 0)
	var liveN, tombN int
	err := s.Snapshot(0, func(_ store.KV, tombstone bool) error {
		if tombstone {
			tombN++
		} else {
			liveN++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if liveN != 1 || tombN != 1 {
		t.Fatalf("live=%d tomb=%d, want 1/1", liveN, tombN)
	}
}

func BenchmarkPut(b *testing.B) {
	s := New()
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("key-%09d", i))
		s.Put(k, k, 0)
	}
}

func BenchmarkGet(b *testing.B) {
	s := New()
	defer s.Close()
	const n = 100000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%09d", i))
		s.Put(k, k, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AppendGet(nil, []byte(fmt.Sprintf("key-%09d", i%n)))
	}
}
