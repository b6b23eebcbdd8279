// Package ht implements the tHT datalet engine: a striped in-memory hash
// table. It is the fastest engine for point operations and the default
// backend in the paper's scalability experiments (Fig. 7).
package ht

import (
	"bytes"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"

	"bespokv/internal/store"
	"bespokv/internal/store/wal"
)

// shardCount stripes the table to reduce lock contention; a power of two so
// the hash can be masked.
const shardCount = 64

type entry struct {
	value     []byte
	version   uint64
	tombstone bool
}

type shard struct {
	mu sync.RWMutex
	m  map[string]entry
}

// Store is a striped hash table engine: in-memory when built with New,
// write-ahead-logged with checkpoint snapshots when built with Open.
type Store struct {
	shards  [shardCount]shard
	seed    maphash.Seed
	maxVer  atomic.Uint64
	live    atomic.Int64
	closed  atomic.Bool
	nameStr string

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
	s := &Store{seed: maphash.MakeSeed(), nameStr: "ht"}
	for i := range s.shards {
		s.shards[i].m = make(map[string]entry)
	}
	return s
}

// Name reports "ht".
func (s *Store) Name() string { return s.nameStr }

func (s *Store) shardFor(key []byte) *shard {
	h := maphash.Bytes(s.seed, key)
	return &s.shards[h&(shardCount-1)]
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
	sh := s.shardFor(key)
	sh.mu.Lock()
	old, exists := sh.m[string(key)]
	if exists && !old.wins(version) {
		sh.mu.Unlock()
		return old.version, nil
	}
	sh.m[string(key)] = entry{value: store.CloneBytes(value), version: version}
	sh.mu.Unlock()
	if !exists || old.tombstone {
		s.live.Add(1)
	}
	return version, nil
}

func (e entry) wins(v uint64) bool { return v >= e.version }

// Get returns the live value for key.
func (s *Store) Get(key []byte) ([]byte, uint64, bool, error) {
	if s.closed.Load() {
		return nil, 0, false, store.ErrClosed
	}
	sh := s.shardFor(key)
	sh.mu.RLock()
	e, ok := sh.m[string(key)]
	sh.mu.RUnlock()
	if !ok || e.tombstone {
		return nil, 0, false, nil
	}
	return store.CloneBytes(e.value), e.version, true, nil
}

// Delete writes a tombstone for key under LWW semantics.
func (s *Store) Delete(key []byte, version uint64) (bool, uint64, error) {
	if s.closed.Load() {
		return false, 0, store.ErrClosed
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
	sh := s.shardFor(key)
	sh.mu.Lock()
	old, exists := sh.m[string(key)]
	if exists && !old.wins(version) {
		sh.mu.Unlock()
		return !old.tombstone, old.version, nil
	}
	sh.m[string(key)] = entry{version: version, tombstone: true}
	sh.mu.Unlock()
	existed := exists && !old.tombstone
	if existed {
		s.live.Add(-1)
	}
	return existed, version, nil
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
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.m {
			if e.tombstone || !store.InRange([]byte(k), start, end) {
				continue
			}
			out = append(out, store.KV{Key: []byte(k), Value: e.value, Version: e.version})
		}
		sh.mu.RUnlock()
	}
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
	type rec struct {
		kv   store.KV
		tomb bool
	}
	var batch []rec
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		// Copy the shard's records so fn runs without the lock held.
		batch = batch[:0]
		for k, e := range sh.m {
			if e.version <= since {
				continue
			}
			batch = append(batch, rec{
				kv:   store.KV{Key: []byte(k), Value: e.value, Version: e.version},
				tomb: e.tombstone,
			})
		}
		sh.mu.RUnlock()
		for _, r := range batch {
			if err := fn(r.kv, r.tomb); err != nil {
				return err
			}
		}
	}
	return nil
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
