package ht

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"bespokv/internal/store"
	"bespokv/internal/store/wal"
)

// checkStripes asserts the per-stripe bookkeeping: the index counts every
// key once, and dead bytes never pass half the arena.
func checkStripes(t *testing.T, s *Store, wantKeys int) {
	t.Helper()
	keys := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		occupied := 0
		for _, w := range sh.index {
			if w != 0 {
				occupied++
			}
		}
		if occupied != sh.keys || 4*sh.keys > 3*len(sh.index) {
			t.Errorf("stripe %d: %d occupied slots, %d counted, index of %d", i, occupied, sh.keys, len(sh.index))
		}
		if 2*sh.dead > cap(sh.arena) {
			t.Errorf("stripe %d: %d dead bytes in an arena of %d", i, sh.dead, cap(sh.arena))
		}
		keys += sh.keys
		sh.mu.RUnlock()
	}
	if keys != wantKeys {
		t.Errorf("index holds %d keys, want %d", keys, wantKeys)
	}
}

// TestArenaChurnModel loads 100 k keys (growing every stripe's index from
// minIndex slots), then churns them against a model: overwrites that grow
// a value past its record's capacity and ones that shrink it in place,
// deletes, and writes carrying an older version that must lose.
func TestArenaChurnModel(t *testing.T) {
	const keys = 100_000
	type cell struct {
		value   string
		version uint64
		tomb    bool
	}
	rng := rand.New(rand.NewSource(45))
	s := New()
	defer s.Close()
	model := make(map[string]*cell, keys)
	key := func(i int) []byte { return []byte(fmt.Sprintf("churn-%06d", i)) }
	value := func(n int) []byte {
		v := make([]byte, n)
		rng.Read(v)
		return v
	}
	var ver uint64
	put := func(k []byte, v []byte) {
		ver++
		if got, err := s.Put(k, v, ver); err != nil || got != ver {
			t.Fatalf("Put(%s, v%d) = v%d, %v", k, ver, got, err)
		}
		model[string(k)] = &cell{value: string(v), version: ver}
	}
	for i := 0; i < keys; i++ {
		put(key(i), value(rng.Intn(16)))
	}
	checkStripes(t, s, keys)

	var mid uint64
	for op := 0; op < 100_000; op++ {
		if op == 50_000 {
			mid = ver
		}
		k := key(rng.Intn(keys))
		c := model[string(k)]
		switch rng.Intn(8) {
		case 0, 1: // grow past the record's capacity
			put(k, value(len(c.value)+1+rng.Intn(32)))
		case 2, 3: // shrink: in place
			put(k, value(rng.Intn(len(c.value)+1)))
		case 4:
			put(k, value(rng.Intn(48)))
		case 5:
			ver++
			existed, winner, err := s.Delete(k, ver)
			if err != nil || existed == c.tomb || winner != ver {
				t.Fatalf("Delete(%s, v%d) = %v, v%d, %v; model %+v", k, ver, existed, winner, err, *c)
			}
			model[string(k)] = &cell{version: ver, tomb: true}
		case 6: // a stale put loses
			if got, err := s.Put(k, []byte("stale"), c.version-1); err != nil || got != c.version {
				t.Fatalf("stale Put(%s) = v%d, %v; want v%d", k, got, err, c.version)
			}
		case 7: // a stale delete loses
			existed, winner, err := s.Delete(k, c.version-1)
			if err != nil || existed == c.tomb || winner != c.version {
				t.Fatalf("stale Delete(%s) = %v, v%d, %v; model %+v", k, existed, winner, err, *c)
			}
		}
	}

	live := 0
	for k, c := range model {
		v, version, ok, err := s.AppendGet(nil, []byte(k))
		if err != nil || ok == c.tomb || (ok && (string(v) != c.value || version != c.version)) {
			t.Fatalf("Get(%s) = %x, v%d, %v, %v; model %+v", k, v, version, ok, err, *c)
		}
		if !c.tomb {
			live++
		}
	}
	if s.Len() != live {
		t.Fatalf("Len = %d, model has %d live keys", s.Len(), live)
	}
	checkStripes(t, s, keys)
	for _, since := range []uint64{0, mid} {
		listed := 0
		err := s.Snapshot(since, func(kv store.KV, tomb bool) error {
			c := model[string(kv.Key)]
			if c == nil || kv.Version <= since || kv.Version != c.version || tomb != c.tomb || string(kv.Value) != c.value {
				return fmt.Errorf("Snapshot(%d) listed %s v%d tomb=%v; model %+v", since, kv.Key, kv.Version, tomb, c)
			}
			listed++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, c := range model {
			if c.version > since {
				want++
			}
		}
		if listed != want {
			t.Fatalf("Snapshot(%d) listed %d records, model has %d", since, listed, want)
		}
	}
}

// TestArenaBoundedUnderGrowingOverwrites: values that keep outgrowing
// their records leave a dead record behind on every write, yet no arena
// grows past 5/4 of its live record bytes, or minArena.
func TestArenaBoundedUnderGrowingOverwrites(t *testing.T) {
	s := New()
	defer s.Close()
	var keys [16][]byte
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("grow-%02d", i))
	}
	for round := 0; round < 10_000; round++ {
		value := bytes.Repeat([]byte{byte(round)}, 1+round%300)
		for _, k := range keys {
			if _, err := s.Put(k, value, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := range s.shards {
			sh := &s.shards[i]
			if live := len(sh.arena) - sh.dead; cap(sh.arena) > max(minArena, live*5/4) {
				t.Fatalf("round %d, stripe %d: arena of %d bytes for %d live record bytes", round, i, cap(sh.arena), live)
			}
		}
	}
	for _, k := range keys {
		if v, _, ok, _ := s.AppendGet(nil, k); !ok || len(v) != 1+9_999%300 {
			t.Fatalf("Get(%s) = %d bytes, %v", k, len(v), ok)
		}
	}
	checkStripes(t, s, len(keys))
}

// TestScanSnapshotNoTornValues runs Scan and Snapshot beside in-place
// overwrites; every value written is one byte repeated, so a copy taken
// halfway through a write shows as a mixed value.
func TestScanSnapshotNoTornValues(t *testing.T) {
	s := New()
	defer s.Close()
	const keys = 64
	key := func(i int) []byte { return []byte(fmt.Sprintf("torn-%02d", i)) }
	for i := 0; i < keys; i++ {
		if _, err := s.Put(key(i), bytes.Repeat([]byte{'a'}, 64), 0); err != nil {
			t.Fatal(err)
		}
	}
	uniform := func(v []byte) bool { return len(v) > 0 && bytes.Count(v, v[:1]) == len(v) }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20_000; i++ {
				v := bytes.Repeat([]byte{byte('b' + rng.Intn(20))}, 32+rng.Intn(33))
				if _, err := s.Put(key(rng.Intn(keys)), v, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			kvs, err := s.Scan(nil, nil, 0)
			if err != nil || len(kvs) != keys {
				t.Errorf("Scan: %d pairs, %v", len(kvs), err)
				return
			}
			for _, kv := range kvs {
				if !uniform(kv.Value) {
					t.Errorf("Scan saw a torn value for %s: %q", kv.Key, kv.Value)
					return
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := s.Snapshot(0, func(kv store.KV, _ bool) error {
				if !uniform(kv.Value) {
					return fmt.Errorf("Snapshot saw a torn value for %s: %q", kv.Key, kv.Value)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
}

// TestHTPointerFree: the table holds no per-key heap object, a same-size
// overwrite allocates nothing, and neither does AppendGet into a buffer
// with room for the value.
func TestHTPointerFree(t *testing.T) {
	const keys = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New()
	defer s.Close()
	key := make([]byte, 16)
	value := make([]byte, 32)
	for i := 0; i < keys; i++ {
		binary.BigEndian.PutUint64(key[8:], uint64(i))
		if _, err := s.Put(key, value, 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := int64(after.HeapObjects) - int64(before.HeapObjects)
	t.Logf("loading %d keys added %d heap objects", keys, n)
	if n >= 1000 {
		t.Errorf("loading %d keys added %d heap objects, want < 1000", keys, n)
	}
	if n := testing.AllocsPerRun(1000, func() { s.Put(key, value, 0) }); n != 0 {
		t.Errorf("a same-size overwrite allocates %.1f times, want 0", n)
	}
	buf := make([]byte, 0, len(value))
	if n := testing.AllocsPerRun(1000, func() { s.AppendGet(buf, key) }); n != 0 {
		t.Errorf("AppendGet into a buffer with room allocates %.1f times, want 0", n)
	}
}

// TestHTBytesPerKey: 100 k keys of 16 B and values of 32 B cost at most
// 88 B each of arena capacity and index together (a 60 B record, the
// arena's growth slack and an index word at under 3/4 load).
func TestHTBytesPerKey(t *testing.T) {
	const keys = 100_000
	s := New()
	defer s.Close()
	key := make([]byte, 16)
	value := make([]byte, 32)
	for i := 0; i < keys; i++ {
		binary.BigEndian.PutUint64(key[8:], uint64(i))
		if _, err := s.Put(key, value, 0); err != nil {
			t.Fatal(err)
		}
	}
	var arena, index int
	for i := range s.shards {
		arena += cap(s.shards[i].arena)
		index += 8 * len(s.shards[i].index)
	}
	perKey := float64(arena+index) / keys
	t.Logf("%.1f B per key: %.1f arena, %.1f index", perKey, float64(arena)/keys, float64(index)/keys)
	if perKey > 88 {
		t.Errorf("%.1f B of arena and index per key, want <= 88", perKey)
	}
}

// TestRecordLayoutProperty writes keys and values whose sizes sit on both
// sides of each header width boundary (255/256 and 65535/65536 bytes)
// through in-place shrinks, same-size rewrites, values that outgrow their
// record and tombstones, checking each record's header against a model;
// then Scan, Snapshot and a checkpoint reload must give back the model.
func TestRecordLayoutProperty(t *testing.T) {
	type cell struct {
		value   []byte
		version uint64
		tomb    bool
		cap     int // the record's value capacity: the largest value it held
	}
	sizes := []int{0, 1, 31, 255, 256, 257, 65535, 65536, 65537}
	rng := rand.New(rand.NewSource(53))
	var keys [][]byte
	for _, n := range []int{1, 16, 255, 256, 65535, 65536} {
		for j := 0; j < 3; j++ {
			k := bytes.Repeat([]byte{byte('a' + j)}, n)
			keys = append(keys, k)
		}
	}
	fs := wal.NewMemFS()
	s, err := Open(Options{Dir: "layout", FS: fs, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]*cell{}
	var ver uint64
	// locate returns key's record and its offset in its stripe's arena.
	locate := func(k []byte) (record, int) {
		h, sh := s.hash(k)
		off, _, ok := sh.find(h, k)
		if !ok {
			t.Fatalf("key of %d bytes not in the index", len(k))
		}
		return record(sh.arena[off:]), off
	}
	check := func(k []byte, c *cell, op string) {
		r, _ := locate(k)
		wantW := widthCode(max(len(k), c.cap))
		if r.width() != wantW || r.keyLen() != len(k) || r.valCap() != c.cap || r.valLen() != len(c.value) ||
			r.version() != c.version || r.tombstone() != c.tomb || !bytes.Equal(r.key(), k) || !bytes.Equal(r.value(), c.value) {
			t.Fatalf("%s: key of %d bytes: record width %d, key %d, value %d of %d, v%d, tomb %v; want width %d, value %d of %d, v%d, tomb %v",
				op, len(k), r.width(), r.keyLen(), r.valLen(), r.valCap(), r.version(), r.tombstone(),
				wantW, len(c.value), c.cap, c.version, c.tomb)
		}
		if len(k) < 256 && c.cap < 256 && r.hdrLen() != 12 {
			t.Fatalf("%s: a %d-byte key with capacity %d has a %d-byte header", op, len(k), c.cap, r.hdrLen())
		}
	}
	put := func(k []byte, n int, op string) {
		v := make([]byte, n)
		rng.Read(v)
		c := model[string(k)]
		before := -1 // the record's offset, when the write must keep it
		if c == nil {
			c = &cell{}
			model[string(k)] = c
		} else if n <= c.cap {
			_, before = locate(k)
		}
		ver++
		if got, err := s.Put(k, v, ver); err != nil || got != ver {
			t.Fatalf("%s: Put = v%d, %v; want v%d", op, got, err, ver)
		}
		c.value, c.version, c.tomb, c.cap = v, ver, false, max(c.cap, n)
		check(k, c, op)
		if _, after := locate(k); before >= 0 && after != before {
			t.Fatalf("%s: a value of %d bytes fits capacity %d but moved the record", op, n, c.cap)
		}
	}
	for _, k := range keys {
		put(k, sizes[rng.Intn(len(sizes))], "create")
	}
	for op := 0; op < 400; op++ {
		k := keys[rng.Intn(len(keys))]
		c := model[string(k)]
		switch rng.Intn(5) {
		case 0:
			put(k, rng.Intn(c.cap+1), "shrink")
		case 1:
			put(k, len(c.value), "same size")
		case 2:
			bigger := sizes[rng.Intn(len(sizes))]
			if bigger <= c.cap {
				bigger = c.cap + 1 + rng.Intn(300)
			}
			put(k, bigger, "grow")
		case 3:
			ver++
			if _, _, err := s.Delete(k, ver); err != nil {
				t.Fatal(err)
			}
			c.value, c.version, c.tomb = nil, ver, true
			check(k, c, "delete")
		case 4:
			put(k, sizes[rng.Intn(len(sizes))], "any size")
		}
	}

	// verify lists the store against the model, through Scan and Snapshot.
	verify := func(s *Store, when string) {
		live := map[string]*cell{}
		for k, c := range model {
			if !c.tomb {
				live[k] = c
			}
		}
		kvs, err := s.Scan(nil, nil, 0)
		if err != nil || len(kvs) != len(live) {
			t.Fatalf("%s: Scan listed %d pairs, %v; model has %d live", when, len(kvs), err, len(live))
		}
		for _, kv := range kvs {
			c := live[string(kv.Key)]
			if c == nil || kv.Version != c.version || !bytes.Equal(kv.Value, c.value) {
				t.Fatalf("%s: Scan listed a %d-byte key v%d that the model does not hold", when, len(kv.Key), kv.Version)
			}
		}
		listed := 0
		err = s.Snapshot(0, func(kv store.KV, tomb bool) error {
			c := model[string(kv.Key)]
			if c == nil || kv.Version != c.version || tomb != c.tomb || !bytes.Equal(kv.Value, c.value) {
				return fmt.Errorf("%s: Snapshot listed a %d-byte key v%d tomb=%v that the model does not hold", when, len(kv.Key), kv.Version, tomb)
			}
			listed++
			return nil
		})
		if err != nil || listed != len(model) {
			t.Fatalf("%s: Snapshot listed %d records, %v; model has %d", when, listed, err, len(model))
		}
	}
	verify(s, "live")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, err = Open(Options{Dir: "layout", FS: fs, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	verify(s, "reloaded")
}
