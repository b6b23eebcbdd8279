// Package applog implements the tLog datalet engine: a persistent
// append-only log with an in-memory hash index, the paper's tLog
// ("a persistent log-structured store that uses tHT as the in-memory
// index"). Every write is appended to the active segment; the index maps
// keys to segment offsets, so Gets pay one random read against the log.
// Recovery replays segments in order. Compact rewrites the live set into a
// fresh segment when garbage accumulates.
//
// With a directory the log lives in numbered segment files; with an empty
// directory it lives in in-memory segments, which keeps the same code path
// (offsets, replay, compaction) testable and benchable without a disk.
package applog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"bespokv/internal/store"
)

const (
	flagTombstone = 1 << 0
	// defaultSegmentSize rotates segments at 8 MiB.
	defaultSegmentSize = 8 << 20
	recordHeaderSize   = 4 + 4 // length + crc
)

// segment abstracts one log extent: file-backed or memory-backed.
type segment interface {
	append(rec []byte) (offset int64, err error)
	readAt(p []byte, off int64) error
	size() int64
	// truncate discards everything at and after off, repairing a torn or
	// corrupt tail so later appends extend a clean log.
	truncate(off int64) error
	close() error
	remove() error
}

type indexEntry struct {
	seg       int // index into Store.segs
	offset    int64
	length    int
	version   uint64
	tombstone bool
}

// Store is the append-only log engine.
type Store struct {
	mu        sync.RWMutex
	dir       string
	segSize   int64
	autoRatio float64
	segs      []segment
	segIDs    []int // on-disk numeric IDs, parallel to segs
	nextID    int
	index     map[string]indexEntry
	writes    int // since the last auto-compaction check
	live      int
	garbage   int // dead records (superseded or tombstoned)
	maxVer    uint64
	// recoveredVer is the watermark captured at the end of open-time
	// replay; rejoin uses it to request a delta of newer writes.
	recoveredVer uint64
	closed       bool
}

// Options configure the engine.
type Options struct {
	// Dir is the segment directory; empty selects in-memory segments.
	Dir string
	// SegmentSize overrides the rotation threshold (bytes).
	SegmentSize int64
	// AutoCompactRatio triggers an inline compaction when the fraction of
	// dead records exceeds it (checked every autoCompactEvery writes once
	// at least two segments exist); 0 disables auto-compaction.
	AutoCompactRatio float64
}

// autoCompactEvery bounds how often the garbage ratio is evaluated so the
// check stays off the per-write hot path.
const autoCompactEvery = 1024

// New opens (or creates) a log store, replaying any existing segments.
func New(opts Options) (*Store, error) {
	s := &Store{
		dir:       opts.Dir,
		segSize:   opts.SegmentSize,
		autoRatio: opts.AutoCompactRatio,
		index:     make(map[string]indexEntry),
	}
	if s.segSize <= 0 {
		s.segSize = defaultSegmentSize
	}
	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, err
		}
		if err := s.loadSegments(); err != nil {
			return nil, err
		}
	}
	if len(s.segs) == 0 {
		if err := s.rotateLocked(); err != nil {
			return nil, err
		}
	}
	s.recoveredVer = s.maxVer
	return s, nil
}

// Name reports "applog".
func (s *Store) Name() string { return "applog" }

func (s *Store) loadSegments() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(name, ".seg"))
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		seg, err := openFileSegment(s.segPath(id))
		if err != nil {
			return err
		}
		s.segs = append(s.segs, seg)
		s.segIDs = append(s.segIDs, id)
		if id >= s.nextID {
			s.nextID = id + 1
		}
		if err := s.replaySegment(len(s.segs) - 1); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%08d.seg", id))
}

// replaySegment scans records in segment si rebuilding the index. Every
// record's CRC is verified; at the first torn or corrupt record the
// segment is truncated there, so the bad suffix is physically discarded
// and later appends extend a log whose replayable prefix matches its
// bytes on disk.
func (s *Store) replaySegment(si int) error {
	seg := s.segs[si]
	var off int64
	var hdr [recordHeaderSize]byte
	for off < seg.size() {
		if seg.size()-off < recordHeaderSize {
			return seg.truncate(off) // torn header at the tail
		}
		if err := seg.readAt(hdr[:], off); err != nil {
			return fmt.Errorf("applog: replay header at %d: %w", off, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(n) > seg.size()-off-recordHeaderSize {
			// Torn tail write: the record was never fully persisted.
			return seg.truncate(off)
		}
		body := make([]byte, n)
		if err := seg.readAt(body, off+recordHeaderSize); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(body) != wantCRC {
			return seg.truncate(off) // torn or corrupt record
		}
		key, _, version, flags, err := decodeBody(body)
		if err != nil {
			return err
		}
		s.applyIndex(string(key), indexEntry{
			seg:       si,
			offset:    off,
			length:    recordHeaderSize + int(n),
			version:   version,
			tombstone: flags&flagTombstone != 0,
		})
		off += recordHeaderSize + int64(n)
	}
	return nil
}

// applyIndex installs e for key under LWW rules, maintaining counters.
func (s *Store) applyIndex(key string, e indexEntry) bool {
	old, exists := s.index[key]
	if exists && e.version < old.version {
		s.garbage++
		return false
	}
	if exists {
		s.garbage++
		if !old.tombstone {
			s.live--
		}
	}
	if !e.tombstone {
		s.live++
	}
	s.index[key] = e
	if e.version > s.maxVer {
		s.maxVer = e.version
	}
	return true
}

func encodeBody(key, value []byte, version uint64, flags uint8) []byte {
	body := make([]byte, 0, 16+len(key)+len(value))
	body = binary.AppendUvarint(body, version)
	body = append(body, flags)
	body = binary.AppendUvarint(body, uint64(len(key)))
	body = append(body, key...)
	body = binary.AppendUvarint(body, uint64(len(value)))
	body = append(body, value...)
	return body
}

func decodeBody(body []byte) (key, value []byte, version uint64, flags uint8, err error) {
	version, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, nil, 0, 0, fmt.Errorf("applog: corrupt record version")
	}
	body = body[n:]
	if len(body) < 1 {
		return nil, nil, 0, 0, fmt.Errorf("applog: corrupt record flags")
	}
	flags = body[0]
	body = body[1:]
	klen, n := binary.Uvarint(body)
	if n <= 0 || klen > uint64(len(body)-n) {
		return nil, nil, 0, 0, fmt.Errorf("applog: corrupt key length")
	}
	body = body[n:]
	key = body[:klen]
	body = body[klen:]
	vlen, n := binary.Uvarint(body)
	if n <= 0 || vlen > uint64(len(body)-n) {
		return nil, nil, 0, 0, fmt.Errorf("applog: corrupt value length")
	}
	value = body[n : n+int(vlen)]
	return key, value, version, flags, nil
}

// rotateLocked opens a fresh active segment. Caller holds mu (or is init).
func (s *Store) rotateLocked() error {
	id := s.nextID
	s.nextID++
	if s.dir == "" {
		s.segs = append(s.segs, &memSegment{})
		s.segIDs = append(s.segIDs, id)
		return nil
	}
	seg, err := openFileSegment(s.segPath(id))
	if err != nil {
		return err
	}
	s.segs = append(s.segs, seg)
	s.segIDs = append(s.segIDs, id)
	return nil
}

func (s *Store) appendLocked(key, value []byte, version uint64, flags uint8) (indexEntry, error) {
	active := len(s.segs) - 1
	if s.segs[active].size() >= s.segSize {
		if err := s.rotateLocked(); err != nil {
			return indexEntry{}, err
		}
		active = len(s.segs) - 1
	}
	body := encodeBody(key, value, version, flags)
	rec := make([]byte, recordHeaderSize+len(body))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(body))
	copy(rec[recordHeaderSize:], body)
	off, err := s.segs[active].append(rec)
	if err != nil {
		return indexEntry{}, err
	}
	return indexEntry{
		seg:       active,
		offset:    off,
		length:    len(rec),
		version:   version,
		tombstone: flags&flagTombstone != 0,
	}, nil
}

// Put appends a record and indexes it under LWW semantics.
func (s *Store) Put(key, value []byte, version uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, store.ErrClosed
	}
	if version == 0 {
		version = s.maxVer + 1
	}
	if old, ok := s.index[string(key)]; ok && version < old.version {
		return old.version, nil
	}
	e, err := s.appendLocked(key, value, version, 0)
	if err != nil {
		return 0, err
	}
	s.applyIndex(string(key), e)
	s.maybeAutoCompactLocked()
	return version, nil
}

// maybeAutoCompactLocked runs an inline compaction when garbage crossed
// the configured ratio. Caller holds mu. Compaction failure is not fatal:
// the log keeps appending and the next check retries.
func (s *Store) maybeAutoCompactLocked() {
	if s.autoRatio <= 0 {
		return
	}
	s.writes++
	if s.writes < autoCompactEvery || len(s.segs) < 2 {
		return
	}
	s.writes = 0
	total := len(s.index) + s.garbage
	if total == 0 || float64(s.garbage)/float64(total) < s.autoRatio {
		return
	}
	_ = s.compactLocked()
}

// AppendGet reads the indexed record for key back from its segment and
// appends its value to dst (see store.Engine).
func (s *Store) AppendGet(dst, key []byte) ([]byte, uint64, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return dst, 0, false, store.ErrClosed
	}
	e, ok := s.index[string(key)]
	if !ok || e.tombstone {
		return dst, 0, false, nil
	}
	value, err := s.appendValueLocked(dst, e)
	if err != nil {
		return dst, 0, false, err
	}
	return value, e.version, true, nil
}

// appendValueLocked reads e's record body into dst's spare capacity
// (growing dst when it is short), decodes it there and moves the value
// down to len(dst), so the read costs no buffer of its own.
func (s *Store) appendValueLocked(dst []byte, e indexEntry) ([]byte, error) {
	base := len(dst)
	n := e.length - recordHeaderSize
	dst = slices.Grow(dst, n)
	body := dst[base : base+n]
	if err := s.segs[e.seg].readAt(body, e.offset+recordHeaderSize); err != nil {
		return dst[:base], err
	}
	_, value, _, _, err := decodeBody(body)
	if err != nil {
		return dst[:base], err
	}
	return dst[:base+copy(body, value)], nil
}

// Delete appends a tombstone record under LWW semantics.
func (s *Store) Delete(key []byte, version uint64) (bool, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, 0, store.ErrClosed
	}
	if version == 0 {
		version = s.maxVer + 1
	}
	old, exists := s.index[string(key)]
	if exists && version < old.version {
		return !old.tombstone, old.version, nil
	}
	e, err := s.appendLocked(key, nil, version, flagTombstone)
	if err != nil {
		return false, 0, err
	}
	s.applyIndex(string(key), e)
	s.maybeAutoCompactLocked()
	return exists && !old.tombstone, version, nil
}

// Scan returns live pairs with start <= key < end in key order, up to
// limit — sorted-at-snapshot over the hash index (same approach as
// ht.Store.Scan): matching keys are collected and sorted under the read
// lock, and only the first limit values are read back from their segments.
func (s *Store) Scan(start, end []byte, limit int) ([]store.KV, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, store.ErrClosed
	}
	keys := make([]string, 0, 64)
	for k, e := range s.index {
		if e.tombstone || !store.InRange([]byte(k), start, end) {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys) // bytewise order, same as bytes.Compare
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	out := make([]store.KV, 0, len(keys))
	for _, k := range keys {
		e := s.index[k]
		value, err := s.appendValueLocked(nil, e)
		if err != nil {
			return nil, err
		}
		out = append(out, store.KV{Key: []byte(k), Value: value, Version: e.version})
	}
	return out, nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// GarbageRatio reports the fraction of indexed history that is dead.
func (s *Store) GarbageRatio() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := len(s.index) + s.garbage
	if total == 0 {
		return 0
	}
	return float64(s.garbage) / float64(total)
}

// Compact rewrites the live set (and every tombstone) into fresh
// segments and removes the old ones.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return store.ErrClosed
	}
	return s.compactLocked()
}

// compactLocked does the rewrite; caller holds mu.
func (s *Store) compactLocked() error {
	oldSegs := s.segs
	oldIDs := s.segIDs
	s.segs = nil
	s.segIDs = nil
	if err := s.rotateLocked(); err != nil {
		s.segs = oldSegs
		s.segIDs = oldIDs
		return err
	}
	newIndex := make(map[string]indexEntry, len(s.index))
	for k, e := range s.index {
		var value []byte
		if !e.tombstone {
			body := make([]byte, e.length-recordHeaderSize)
			if err := oldSegs[e.seg].readAt(body, e.offset+recordHeaderSize); err != nil {
				return err
			}
			_, v, _, _, err := decodeBody(body)
			if err != nil {
				return err
			}
			value = v
		}
		var flags uint8
		if e.tombstone {
			flags = flagTombstone
		}
		ne, err := s.appendLocked([]byte(k), value, e.version, flags)
		if err != nil {
			return err
		}
		newIndex[k] = ne
	}
	s.index = newIndex
	s.garbage = 0
	for _, seg := range oldSegs {
		_ = seg.close()
		_ = seg.remove()
	}
	return nil
}

// Close closes all segments.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, seg := range s.segs {
		_ = seg.close()
	}
	return nil
}

// MaxVersion returns the highest version assigned or observed.
func (s *Store) MaxVersion() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.maxVer
}

// RecoveredVersion returns the watermark captured at the end of open-time
// replay; 0 for stores that started empty.
func (s *Store) RecoveredVersion() uint64 { return s.recoveredVer }

// Snapshot calls fn for every record with version > since, tombstones
// included, in hash order. The index keeps tombstones (and Compact
// rewrites them), so the list is complete from any version.
func (s *Store) Snapshot(since uint64, fn func(kv store.KV, tombstone bool) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return store.ErrClosed
	}
	for k, e := range s.index {
		if e.version <= since {
			continue
		}
		var value []byte
		if !e.tombstone {
			v, err := s.appendValueLocked(nil, e)
			if err != nil {
				return err
			}
			value = v
		}
		if err := fn(store.KV{Key: []byte(k), Value: value, Version: e.version}, e.tombstone); err != nil {
			return err
		}
	}
	return nil
}

var (
	_ store.Engine    = (*Store)(nil)
	_ store.Versioned = (*Store)(nil)
	_ store.Recovered = (*Store)(nil)
)
