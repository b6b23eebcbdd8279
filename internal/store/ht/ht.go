// Package ht implements the tHT datalet engine: a striped in-memory hash
// table. It is the fastest engine for point operations and the default
// backend in the paper's scalability experiments (Fig. 7).
//
// Each of the 64 stripes holds only pointer-free memory under one RWMutex:
// an open-addressed []uint64 index and one []byte arena. An index word
// packs a hash tag and the arena offset of a record; a record is a header
// (version, tombstone, and the key length, value length and value capacity
// in fields as wide as they need: 12 bytes for a key and a capacity under
// 256), then the key, then value-capacity bytes of which the first
// value-length hold the value. A key costs one index word and one
// contiguous record, and the garbage collector has nothing inside the
// table to scan.
//
// A write that fits its record's capacity overwrites it in place; any
// other write appends a new record and counts the old one dead. When an
// append does not fit the arena, the stripe copies its records the index
// still points at into a new arena 5/4 of their size, which drops the
// dead ones: dead bytes stay within about a quarter of the live ones.
// Records are never removed (the engine keeps every tombstone), so the
// index has no delete and grows, by rehashing the keys in the arena, at
// 3/4 load.
package ht

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/maphash"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"bespokv/internal/store"
	"bespokv/internal/store/wal"
)

// shardCount stripes the table to reduce lock contention; a power of two so
// the low bits of a key's hash pick its stripe.
const (
	shardCount = 64
	shardBits  = 6
)

// The record header: the version, then a width byte, then the key length,
// value length and value capacity, each a little-endian field of 1, 2 or 4
// bytes. The width byte's low bits pick the field width (1<<code bytes),
// the widest the record's key length and capacity need; its top bit is the
// tombstone. A record's key and capacity never change, so neither does its
// width, and a value that fits rewrites the record in place. A key and a
// capacity under 256 B take a 12-byte header.
const (
	hdrVersion = 0 // uint64
	hdrWidth   = 8 // width code | flagTombstone
	hdrFields  = 9 // key length, value length, value capacity

	widthMask     = 3
	flagTombstone = 0x80
)

// widthCode returns the code of the narrowest field width holding n.
func widthCode(n int) byte {
	switch {
	case n <= math.MaxUint8:
		return 0
	case n <= math.MaxUint16:
		return 1
	}
	return 2
}

// hdrLen is the header size of a record with width code w.
func hdrLen(w byte) int { return hdrFields + 3<<w }

// An index word is tag<<offBits | offset. A tag is the hash's top 24 bits
// with the lowest forced to 1, so no occupied word is 0, the empty slot.
// Offsets of 40 bits address a terabyte per stripe.
const (
	offBits = 40
	offMask = 1<<offBits - 1

	minIndex = 16  // index slots of a new stripe
	minArena = 512 // smallest arena a stripe allocates
)

// errTooLarge refuses what a record header's 32-bit lengths cannot hold.
var errTooLarge = errors.New("ht: key or value of 4 GiB or more")

// record is a view of one record: the slice starts at its header.
type record []byte

func (r record) version() uint64 { return binary.LittleEndian.Uint64(r[hdrVersion:]) }
func (r record) width() byte     { return r[hdrWidth] & widthMask }
func (r record) tombstone() bool { return r[hdrWidth]&flagTombstone != 0 }
func (r record) hdrLen() int     { return hdrLen(r.width()) }
func (r record) keyLen() int     { return r.field(0) }
func (r record) valLen() int     { return r.field(1) }
func (r record) valCap() int     { return r.field(2) }

// field reads header field i: 0 key length, 1 value length, 2 capacity.
func (r record) field(i int) int {
	w := r.width()
	p := r[hdrFields+i<<w:]
	switch w {
	case 0:
		return int(p[0])
	case 1:
		return int(binary.LittleEndian.Uint16(p))
	}
	return int(binary.LittleEndian.Uint32(p))
}

// setField writes header field i; n must fit the record's width.
func (r record) setField(i, n int) {
	w := r.width()
	p := r[hdrFields+i<<w:]
	switch w {
	case 0:
		p[0] = byte(n)
	case 1:
		binary.LittleEndian.PutUint16(p, uint16(n))
	default:
		binary.LittleEndian.PutUint32(p, uint32(n))
	}
}

// size is the record's length in the arena, header and capacity included.
func (r record) size() int { return r.hdrLen() + r.keyLen() + r.valCap() }

func (r record) key() []byte {
	start := r.hdrLen()
	end := start + r.keyLen()
	return r[start:end:end]
}

func (r record) value() []byte {
	start := r.hdrLen() + r.keyLen()
	end := start + r.valLen()
	return r[start:end:end]
}

// init writes a new record's header, of width code w, and key into r,
// with room for capacity value bytes; set then writes its value.
func (r record) init(w byte, key []byte, capacity int) {
	r[hdrWidth] = w
	r.setField(0, len(key))
	r.setField(2, capacity)
	copy(r[hdrLen(w):], key)
}

// set overwrites the record's version, value and tombstone flag in place;
// value must fit its capacity.
func (r record) set(value []byte, version uint64, tombstone bool) {
	binary.LittleEndian.PutUint64(r[hdrVersion:], version)
	r.setField(1, len(value))
	r[hdrWidth] &= widthMask
	if tombstone {
		r[hdrWidth] |= flagTombstone
	}
	copy(r[r.hdrLen()+r.keyLen():], value)
}

type shard struct {
	mu    sync.RWMutex
	index []uint64 // length a power of two; 0 is an empty slot
	arena []byte
	keys  int // occupied index slots
	dead  int // arena bytes of records no index word points at
	_     [40]byte
}

func tagOf(h uint64) uint64 { return h>>offBits | 1 }

// find returns the arena offset of key's record; when the key is absent,
// slot is the empty index slot its record would take.
func (sh *shard) find(h uint64, key []byte) (off, slot int, ok bool) {
	mask := uint64(len(sh.index) - 1)
	tag := tagOf(h)
	for i := (h >> shardBits) & mask; ; i = (i + 1) & mask {
		w := sh.index[i]
		if w == 0 {
			return 0, int(i), false
		}
		if w>>offBits == tag && bytes.Equal(record(sh.arena[w&offMask:]).key(), key) {
			return int(w & offMask), int(i), true
		}
	}
}

// apply writes one record under the LWW rule with sh.mu write-held, h being
// maphash(seed, key). It returns the version now governing the key, whether
// a live value was visible before, and whether the write applied.
func (sh *shard) apply(seed maphash.Seed, h uint64, key, value []byte, version uint64, tombstone bool) (winner uint64, wasLive, applied bool) {
	off, slot, ok := sh.find(h, key)
	if ok {
		r := record(sh.arena[off:])
		if version < r.version() {
			return r.version(), !r.tombstone(), false
		}
		wasLive = !r.tombstone()
		if len(value) <= r.valCap() {
			r.set(value, version, tombstone)
			return version, wasLive, true
		}
		// The record dies with this write: count it dead and unhook it
		// from its slot, so a compaction in reserve does not copy it.
		sh.dead += r.size()
		sh.index[slot] = 0
	} else {
		if 4*(sh.keys+1) > 3*len(sh.index) {
			sh.growIndex(seed)
			_, slot, _ = sh.find(h, key)
		}
		sh.keys++
	}
	w := widthCode(max(len(key), len(value)))
	need := hdrLen(w) + len(key) + len(value)
	sh.reserve(need) // may move records; slots stay put
	off = len(sh.arena)
	sh.arena = sh.arena[:off+need]
	r := record(sh.arena[off:])
	r.init(w, key, len(value))
	r.set(value, version, tombstone)
	sh.index[slot] = tagOf(h)<<offBits | uint64(off)
	return version, wasLive, true
}

// reserve makes room for need more arena bytes. A full arena is replaced
// by one 5/4 the size of its live records plus need: when it holds dead
// records, only the live ones are copied (compaction); otherwise it grows.
// Live bytes never shrink (a record is replaced only by a larger one, and
// never removed), so the dead bytes a replacement arena can gather are
// the quarter of live bytes it was given as room, plus what the allocator
// rounded a grown arena up by.
func (sh *shard) reserve(need int) {
	if len(sh.arena)+need <= cap(sh.arena) {
		return
	}
	live := len(sh.arena) - sh.dead
	size := max(minArena, (live+need)*5/4)
	if sh.dead == 0 {
		// Growing by append zeroes only the bytes past the copy, and the
		// allocator's size-class rounding becomes capacity, not waste:
		// a preload grows each stripe fewer times.
		sh.arena = append(sh.arena, make([]byte, size-live)...)[:live]
		return
	}
	arena := make([]byte, 0, size)
	for i, w := range sh.index {
		if w == 0 {
			continue
		}
		r := record(sh.arena[w&offMask:])
		sh.index[i] = w&^offMask | uint64(len(arena))
		arena = append(arena, r[:r.size()]...)
	}
	sh.arena, sh.dead = arena, 0
}

// growIndex doubles the index, rehashing every key in the arena.
func (sh *shard) growIndex(seed maphash.Seed) {
	index := make([]uint64, 2*len(sh.index))
	mask := uint64(len(index) - 1)
	for _, w := range sh.index {
		if w == 0 {
			continue
		}
		h := maphash.Bytes(seed, record(sh.arena[w&offMask:]).key())
		i := (h >> shardBits) & mask
		for index[i] != 0 {
			i = (i + 1) & mask
		}
		index[i] = w
	}
	sh.index = index
}

// Store is a striped hash table engine: in-memory when built with New,
// write-ahead-logged with checkpoint snapshots when built with Open.
type Store struct {
	shards [shardCount]shard
	seed   maphash.Seed
	maxVer atomic.Uint64
	live   atomic.Int64
	closed atomic.Bool

	// Durable mode (nil/zero for in-memory stores). ckptMu is read-held
	// across each WAL append + table apply so Checkpoint (write-held)
	// sees an atomic boundary between snapshotted and logged writes.
	wal          *wal.Log
	fs           wal.FS
	dir          string
	ckptEvery    int
	ckptMu       sync.RWMutex
	sinceCkpt    atomic.Int64
	ckptRunning  atomic.Bool
	recoveredVer uint64
}

// New returns an empty hash-table engine.
func New() *Store {
	s := &Store{seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].index = make([]uint64, minIndex)
	}
	return s
}

// Name reports "ht".
func (s *Store) Name() string { return "ht" }

// hash is the one hash of a key: its low bits pick the stripe, the bits
// above them the index slot, its top bits the tag.
func (s *Store) hash(key []byte) (uint64, *shard) {
	h := maphash.Bytes(s.seed, key)
	return h, &s.shards[h&(shardCount-1)]
}

// apply runs one write through its stripe and keeps the live count.
func (s *Store) apply(key, value []byte, version uint64, tombstone bool) (winner uint64, wasLive, applied bool) {
	h, sh := s.hash(key)
	sh.mu.Lock()
	winner, wasLive, applied = sh.apply(s.seed, h, key, value, version, tombstone)
	sh.mu.Unlock()
	if applied && wasLive == tombstone {
		if tombstone {
			s.live.Add(-1)
		} else {
			s.live.Add(1)
		}
	}
	return winner, wasLive, applied
}

// nextVersion assigns a version strictly greater than any seen so far.
func (s *Store) nextVersion() uint64 {
	return s.maxVer.Add(1)
}

// observeVersion keeps the local counter ahead of replicated versions.
func (s *Store) observeVersion(v uint64) {
	for {
		cur := s.maxVer.Load()
		if v <= cur || s.maxVer.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Put stores value under key with LWW semantics (see store.Engine). In
// durable mode the record is fsynced to the WAL before it is applied, so
// a returned version implies the write survives a crash.
func (s *Store) Put(key, value []byte, version uint64) (uint64, error) {
	if s.closed.Load() {
		return 0, store.ErrClosed
	}
	if len(key) >= math.MaxUint32 || len(value) >= math.MaxUint32 {
		return 0, errTooLarge
	}
	if version == 0 {
		version = s.nextVersion()
	} else {
		s.observeVersion(version)
	}
	if s.wal != nil {
		if err := s.logRecord(key, value, version, false); err != nil {
			return 0, err
		}
		defer s.logDone()
	}
	winner, _, _ := s.apply(key, value, version, false)
	return winner, nil
}

// AppendGet appends key's live value to dst (see store.Engine), copying it
// out of the arena under the stripe's read lock.
func (s *Store) AppendGet(dst, key []byte) ([]byte, uint64, bool, error) {
	if s.closed.Load() {
		return dst, 0, false, store.ErrClosed
	}
	h, sh := s.hash(key)
	sh.mu.RLock()
	off, _, ok := sh.find(h, key)
	if !ok || record(sh.arena[off:]).tombstone() {
		sh.mu.RUnlock()
		return dst, 0, false, nil
	}
	r := record(sh.arena[off:])
	dst = append(dst, r.value()...)
	version := r.version()
	sh.mu.RUnlock()
	return dst, version, true, nil
}

// Get returns a private copy of key's live value: AppendGet into a new
// slice. The repository benchmark's store rung reads the engine through it.
func (s *Store) Get(key []byte) ([]byte, uint64, bool, error) {
	return s.AppendGet(nil, key)
}

// Delete writes a tombstone for key under LWW semantics.
func (s *Store) Delete(key []byte, version uint64) (bool, uint64, error) {
	if s.closed.Load() {
		return false, 0, store.ErrClosed
	}
	if len(key) >= math.MaxUint32 {
		return false, 0, errTooLarge
	}
	if version == 0 {
		version = s.nextVersion()
	} else {
		s.observeVersion(version)
	}
	if s.wal != nil {
		if err := s.logRecord(key, nil, version, true); err != nil {
			return false, 0, err
		}
		defer s.logDone()
	}
	winner, wasLive, _ := s.apply(key, nil, version, true)
	return wasLive, winner, nil
}

// walk lists the table stripe by stripe: under a stripe's read lock it
// copies every record keep accepts into one buffer, then calls fn for each
// copy with no lock held. fn's slices are reused after it returns.
func (s *Store) walk(keep func(record) bool, fn func(kv store.KV, tombstone bool) error) error {
	var buf []byte
	for i := range s.shards {
		sh := &s.shards[i]
		buf = buf[:0]
		sh.mu.RLock()
		for _, w := range sh.index {
			if w == 0 {
				continue
			}
			r := record(sh.arena[w&offMask:])
			if !keep(r) {
				continue
			}
			// Copy up to the value's end and shrink the copy's capacity
			// to match, so the buffer reads back record by record.
			n := r.hdrLen() + r.keyLen() + r.valLen()
			buf = append(buf, r[:n]...)
			record(buf[len(buf)-n:]).setField(2, r.valLen())
		}
		sh.mu.RUnlock()
		for p := 0; p < len(buf); {
			r := record(buf[p:])
			p += r.size()
			if err := fn(store.KV{Key: r.key(), Value: r.value(), Version: r.version()}, r.tombstone()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Scan returns live pairs with start <= key < end in key order, up to
// limit. The table keeps no sorted structure, so the scan is
// sorted-at-snapshot: matching pairs are collected stripe by stripe under
// read locks and sorted afterwards. O(n log n) per call — built for the
// migration/backfill paths, which walk the keyspace in bounded chunks, not
// for hot-path range reads (the ordered engines serve those).
func (s *Store) Scan(start, end []byte, limit int) ([]store.KV, error) {
	if s.closed.Load() {
		return nil, store.ErrClosed
	}
	var out []store.KV
	inRange := func(r record) bool { return !r.tombstone() && store.InRange(r.key(), start, end) }
	_ = s.walk(inRange, func(kv store.KV, _ bool) error {
		// One allocation per pair: the key, then the value.
		b := append(append(make([]byte, 0, len(kv.Key)+len(kv.Value)), kv.Key...), kv.Value...)
		k := len(kv.Key)
		out = append(out, store.KV{Key: b[:k:k], Value: b[k:], Version: kv.Version})
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// Len returns the number of live keys.
func (s *Store) Len() int { return int(s.live.Load()) }

// Snapshot calls fn for every record with version > since, tombstones
// included, in shard order.
func (s *Store) Snapshot(since uint64, fn func(kv store.KV, tombstone bool) error) error {
	if s.closed.Load() {
		return store.ErrClosed
	}
	return s.walk(func(r record) bool { return r.version() > since }, fn)
}

// Close marks the engine closed; in durable mode it fsyncs and closes
// the WAL (every acked write is already durable, so close adds nothing
// beyond releasing the files).
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.wal != nil {
		// Wait out in-flight append+apply pairs so the WAL files are not
		// yanked from under them.
		s.ckptMu.Lock()
		defer s.ckptMu.Unlock()
		return s.wal.Close()
	}
	return nil
}

var _ store.Engine = (*Store)(nil)
