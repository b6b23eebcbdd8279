package ht

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"bespokv/internal/store"
	"bespokv/internal/store/enginetest"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, func(t *testing.T) store.Engine { return New() })
}

// TestScanChunkedWalk iterates the whole table the way the migration
// streamer does — bounded chunks with a resume cursor just past the last
// key — and checks the union is exactly the live key set, each key once.
func TestScanChunkedWalk(t *testing.T) {
	s := New()
	defer s.Close()
	const n = 1000
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		if _, err := s.Put(key, []byte(fmt.Sprintf("val-%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a stripe; tombstones must not surface.
	for i := 0; i < n; i += 10 {
		if _, _, err := s.Delete([]byte(fmt.Sprintf("key-%04d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	var cursor []byte
	const chunk = 64
	for {
		kvs, err := s.Scan(cursor, nil, chunk)
		if err != nil {
			t.Fatal(err)
		}
		for i, kv := range kvs {
			if i > 0 && bytes.Compare(kvs[i-1].Key, kv.Key) >= 0 {
				t.Fatalf("chunk out of order at %q", kv.Key)
			}
			if seen[string(kv.Key)] {
				t.Fatalf("key %q returned twice", kv.Key)
			}
			seen[string(kv.Key)] = true
		}
		if len(kvs) < chunk {
			break
		}
		cursor = append(append(cursor[:0], kvs[len(kvs)-1].Key...), 0)
	}
	if want := n - n/10; len(seen) != want {
		t.Fatalf("walk saw %d keys, want %d", len(seen), want)
	}
	for k := range seen {
		var i int
		fmt.Sscanf(k, "key-%d", &i)
		if i%10 == 0 {
			t.Fatalf("deleted key %q surfaced in scan", k)
		}
	}
}

func TestScanClosed(t *testing.T) {
	s := New()
	s.Close()
	if _, err := s.Scan(nil, nil, 0); err != store.ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestName(t *testing.T) {
	if New().Name() != "ht" {
		t.Fatal("wrong name")
	}
}

func BenchmarkPut(b *testing.B) {
	s := New()
	defer s.Close()
	key := []byte("benchmark-key")
	val := []byte("benchmark-value-0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		s.Put(key, val, 0)
	}
}

func BenchmarkGet(b *testing.B) {
	s := New()
	defer s.Close()
	key := []byte("benchmark-key")
	s.Put(key, []byte("benchmark-value"), 0)
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf, _, _, _ = s.AppendGet(buf[:0], key)
	}
}

// spreadKeys is the benchmark's key space: 100 k keys of the benchmark's
// 16-byte keys and 32-byte values, far more than one cache holds.
const spreadKeys = 100_000

var sinkValue []byte

// spreadKey writes the i-th key of the space into key (16 bytes).
func spreadKey(key []byte, i int) []byte {
	copy(key, "spread--")
	binary.BigEndian.PutUint64(key[8:], uint64(i))
	return key
}

func loadSpread(b *testing.B) (s *Store, key, value []byte) {
	s = New()
	key, value = make([]byte, 16), make([]byte, 32)
	for i := 0; i < spreadKeys; i++ {
		if _, err := s.Put(spreadKey(key, i), value, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	return s, key, value
}

// The benchmarks visit the key space in a scattered order: 7919 is prime,
// so i*7919 mod spreadKeys is a permutation.

func BenchmarkGetSpread(b *testing.B) {
	s, key, _ := loadSpread(b)
	defer s.Close()
	for i := 0; i < b.N; i++ {
		sinkValue, _, _, _ = s.AppendGet(sinkValue[:0], spreadKey(key, i*7919%spreadKeys))
	}
}

func BenchmarkPutSpread(b *testing.B) {
	s, key, value := loadSpread(b)
	defer s.Close()
	for i := 0; i < b.N; i++ {
		s.Put(spreadKey(key, i*7919%spreadKeys), value, 0)
	}
}
