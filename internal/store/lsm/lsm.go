// Package lsm implements a log-structured merge-tree datalet engine: a
// B+-tree memtable, immutable flush queue, and size-tiered levels of sorted
// tables with background compaction and Bloom filters. It is the
// reproduction's LevelDB/Cassandra-class engine: fastest for write-heavy
// workloads (no in-place updates), slower for reads than the B+-tree
// (Fig. 6), and its compaction write amplification is what drags the
// "cassandra" baseline profile in Fig. 12.
//
// With Options.Durable the memtable is backed by a write-ahead log: every
// Put/Delete is fsynced (group-committed) before it is acked, Open replays
// the log into a fresh memtable, and log segments are dropped once the
// memtables holding their records are flushed to fsynced sstables.
package lsm

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/store"
	"bespokv/internal/store/btree"
	"bespokv/internal/store/wal"
)

// Options configure the engine.
type Options struct {
	// Dir persists SSTables as .sst files; empty keeps them in memory.
	Dir string
	// FS routes all file I/O (sstables and WAL); nil means the real
	// disk. Substituting faultfs here puts the whole engine under crash
	// and I/O fault injection.
	FS wal.FS
	// MemtableBytes is the flush threshold (default 4 MiB).
	MemtableBytes int64
	// FanoutLimit is the max tables per level before compaction into the
	// next level (default 4).
	FanoutLimit int
	// MaxLevels bounds the tree depth (default 4).
	MaxLevels int
	// SyncCompaction runs flush+compaction inline with the triggering Put
	// instead of in the background; deterministic mode for tests.
	SyncCompaction bool
	// Durable write-ahead-logs the memtable so acked writes survive a
	// crash. Requires Dir.
	Durable bool
	// SyncDelay widens the WAL group-commit window (see wal.Options).
	SyncDelay time.Duration
	// WalSegmentBytes is the WAL segment rotation threshold.
	WalSegmentBytes int64
}

func (o *Options) defaults() {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.FanoutLimit <= 0 {
		o.FanoutLimit = 4
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 4
	}
	if o.FS == nil {
		o.FS = wal.OSFS{}
	}
}

// noSeg marks a memtable with no WAL records yet.
const noSeg = ^uint64(0)

// immTable is a sealed memtable awaiting flush, paired with the WAL
// bookkeeping that ties its records to log segments: walSeg is the
// segment sealed when the memtable was, and minSeg the smallest segment
// holding any of its records (an append can race a seal and land its
// record one segment early, so the drop barrier honours minSeg too).
type immTable struct {
	mem    *btree.Store
	walSeg uint64
	minSeg uint64
}

// Store is the LSM engine.
type Store struct {
	opts Options
	fs   wal.FS
	wal  *wal.Log // nil unless Options.Durable

	mu        sync.RWMutex
	mem       *btree.Store
	memBytes  int64
	memMinSeg uint64
	imm       []immTable   // newest first
	levels    [][]*sstable // levels[i] newest first
	closed    bool
	// persistFailed latches on any sstable persist failure: WAL segments
	// are then never dropped and the log is kept on close, so a restart
	// can replay what the failed table could not hold durably.
	persistFailed bool

	flushMu sync.Mutex // serializes flushAndCompact passes
	flushCh chan struct{}
	doneCh  chan struct{}
	bg      sync.WaitGroup

	nextTableID  atomic.Uint64
	maxVer       atomic.Uint64
	recoveredVer uint64

	// CompactionBytes counts bytes rewritten by flushes and compactions;
	// the write-amplification ablation bench reads it.
	compactionBytes atomic.Int64
	flushes         atomic.Int64
	compactions     atomic.Int64
}

// New opens an LSM store, loading any persisted tables from opts.Dir and,
// in durable mode, replaying the write-ahead log into the memtable.
func New(opts Options) (*Store, error) {
	opts.defaults()
	if opts.Durable && opts.Dir == "" {
		return nil, errors.New("lsm: Durable requires Dir")
	}
	s := &Store{
		opts:      opts,
		fs:        opts.FS,
		mem:       btree.New(),
		memMinSeg: noSeg,
		levels:    make([][]*sstable, opts.MaxLevels),
		flushCh:   make(chan struct{}, 1),
		doneCh:    make(chan struct{}),
	}
	if opts.Dir != "" {
		if err := s.fs.MkdirAll(opts.Dir); err != nil {
			return nil, err
		}
		if err := s.loadTables(); err != nil {
			return nil, err
		}
	}
	if opts.Durable {
		l, err := wal.Open(wal.Options{
			Dir:          wal.Join(opts.Dir, "wal"),
			FS:           opts.FS,
			SegmentBytes: opts.WalSegmentBytes,
			SyncDelay:    opts.SyncDelay,
		})
		if err != nil {
			return nil, err
		}
		replayed := 0
		if err := l.Replay(func(body []byte) error {
			rec, err := wal.DecodeRecord(body)
			if err != nil {
				return err
			}
			s.replayRecord(rec)
			replayed++
			return nil
		}); err != nil {
			l.Close()
			return nil, err
		}
		s.wal = l
		if replayed > 0 {
			// The replayed records live in the existing segments; pin
			// them until this memtable flushes.
			s.memMinSeg = 1
		}
	}
	s.recoveredVer = s.maxVer.Load()
	if !opts.SyncCompaction {
		s.bg.Add(1)
		go s.background()
	}
	return s, nil
}

// Name reports "lsm".
func (s *Store) Name() string { return "lsm" }

// replayRecord applies one WAL record during Open. LWW against loaded
// sstables keeps replay idempotent: a record whose key already has a
// newer on-disk version must not shadow it from the memtable.
func (s *Store) replayRecord(rec wal.Record) {
	s.observeVersion(rec.Version)
	if _, curVer, found := s.lookupLocked(rec.Key); found && rec.Version < curVer {
		return
	}
	if rec.Tombstone {
		_, _, _ = s.mem.Delete(rec.Key, rec.Version)
		s.memBytes += int64(len(rec.Key) + 24)
	} else {
		_, _ = s.mem.Put(rec.Key, rec.Value, rec.Version)
		s.memBytes += int64(len(rec.Key) + len(rec.Value) + 24)
	}
}

// loadTables reads persisted .sst files into level 0, newest (highest id)
// first. Size-tiered level 0 tolerates overlap, so flat recovery is sound.
func (s *Store) loadTables() error {
	names, err := s.fs.ReadDir(s.opts.Dir)
	if err != nil {
		return err
	}
	var ids []uint64
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] }) // newest first
	for _, id := range ids {
		t, err := loadSSTable(s.fs, id, s.tablePath(id))
		if err != nil {
			return err
		}
		s.levels[0] = append(s.levels[0], t)
		if id >= s.nextTableID.Load() {
			s.nextTableID.Store(id + 1)
		}
		for i := range t.entries {
			if v := t.entries[i].version; v > s.maxVer.Load() {
				s.maxVer.Store(v)
			}
		}
	}
	return nil
}

func (s *Store) tablePath(id uint64) string {
	return wal.Join(s.opts.Dir, fmt.Sprintf("%012d.sst", id))
}

func (s *Store) background() {
	defer s.bg.Done()
	for {
		select {
		case <-s.doneCh:
			return
		case <-s.flushCh:
			s.flushAndCompact()
		}
	}
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

// logRecord appends the write to the WAL (fsynced before return) and
// reports which segment it landed in.
func (s *Store) logRecord(key, value []byte, version uint64, tombstone bool) (uint64, error) {
	body := wal.EncodeRecord(nil, wal.Record{Tombstone: tombstone, Version: version, Key: key, Value: value})
	return s.wal.Append(body)
}

// Put stores value under key with LWW semantics. In durable mode the
// record is fsynced to the WAL before it is applied and acked.
func (s *Store) Put(key, value []byte, version uint64) (uint64, error) {
	if version == 0 {
		version = s.maxVer.Add(1)
	} else {
		s.observeVersion(version)
	}
	var seg uint64
	if s.wal != nil {
		var err error
		if seg, err = s.logRecord(key, value, version, false); err != nil {
			if errors.Is(err, wal.ErrClosed) {
				err = store.ErrClosed
			}
			return 0, err
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, store.ErrClosed
	}
	if s.wal != nil && seg < s.memMinSeg {
		s.memMinSeg = seg
	}
	// LWW against anything already visible for this key.
	if _, curVer, found := s.lookupLocked(key); found && version < curVer {
		s.mu.Unlock()
		return curVer, nil
	}
	if _, err := s.mem.Put(key, value, version); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.memBytes += int64(len(key) + len(value) + 24)
	s.maybeScheduleFlushLocked()
	s.mu.Unlock()
	return version, nil
}

// Delete writes a tombstone for key with LWW semantics.
func (s *Store) Delete(key []byte, version uint64) (bool, uint64, error) {
	if version == 0 {
		version = s.maxVer.Add(1)
	} else {
		s.observeVersion(version)
	}
	var seg uint64
	if s.wal != nil {
		var err error
		if seg, err = s.logRecord(key, nil, version, true); err != nil {
			if errors.Is(err, wal.ErrClosed) {
				err = store.ErrClosed
			}
			return false, 0, err
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, 0, store.ErrClosed
	}
	if s.wal != nil && seg < s.memMinSeg {
		s.memMinSeg = seg
	}
	e, curVer, found := s.lookupLocked(key)
	if found && version < curVer {
		s.mu.Unlock()
		return !e.tombstone, curVer, nil
	}
	existed := found && !e.tombstone
	if _, _, err := s.mem.Delete(key, version); err != nil {
		s.mu.Unlock()
		return false, 0, err
	}
	s.memBytes += int64(len(key) + 24)
	s.maybeScheduleFlushLocked()
	s.mu.Unlock()
	return existed, version, nil
}

// sealMemLocked moves the current memtable onto the immutable queue. In
// durable mode the WAL rotates at the seal so the sealed memtable's
// records sit in segments <= walSeg (modulo racing appends, covered by
// minSeg) and can be dropped once it flushes. Caller holds mu.
func (s *Store) sealMemLocked() {
	var sealedSeg uint64
	if s.wal != nil {
		seg, err := s.wal.Rotate()
		if err == nil {
			sealedSeg = seg
		} else {
			// Rotation (an fsync) failed: never drop segments for this
			// memtable and keep the whole log on close.
			s.persistFailed = true
		}
	}
	s.imm = append([]immTable{{mem: s.mem, walSeg: sealedSeg, minSeg: s.memMinSeg}}, s.imm...)
	s.mem = btree.New()
	s.memBytes = 0
	s.memMinSeg = noSeg
}

func (s *Store) maybeScheduleFlushLocked() {
	if s.memBytes < s.opts.MemtableBytes {
		return
	}
	s.sealMemLocked()
	if s.opts.SyncCompaction {
		s.mu.Unlock()
		s.flushAndCompact()
		s.mu.Lock()
		return
	}
	select {
	case s.flushCh <- struct{}{}:
	default:
	}
}

// lookupLocked finds the freshest record for key across memtables and all
// levels. Caller holds mu (read or write).
func (s *Store) lookupLocked(key []byte) (sstEntry, uint64, bool) {
	if v, ver, tomb, ok := s.mem.GetAll(key); ok {
		return sstEntry{key: key, value: v, version: ver, tombstone: tomb}, ver, true
	}
	for _, m := range s.imm {
		if v, ver, tomb, ok := m.mem.GetAll(key); ok {
			return sstEntry{key: key, value: v, version: ver, tombstone: tomb}, ver, true
		}
	}
	for _, level := range s.levels {
		for _, t := range level {
			if e, ok := t.get(key); ok {
				return e, e.version, true
			}
		}
	}
	return sstEntry{}, 0, false
}

// AppendGet appends key's live value to dst (see store.Engine).
func (s *Store) AppendGet(dst, key []byte) ([]byte, uint64, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return dst, 0, false, store.ErrClosed
	}
	e, ver, found := s.lookupLocked(key)
	if !found || e.tombstone {
		return dst, 0, false, nil
	}
	return append(dst, e.value...), ver, true, nil
}

// flushAndCompact drains immutable memtables into level 0, then compacts
// any level that exceeds the fanout limit into the next one.
func (s *Store) flushAndCompact() {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for {
		s.mu.Lock()
		if len(s.imm) == 0 {
			s.mu.Unlock()
			break
		}
		it := s.imm[len(s.imm)-1] // oldest first so newer data lands above
		s.mu.Unlock()

		var entries []sstEntry
		_ = it.mem.Snapshot(0, func(kv store.KV, tomb bool) error {
			entries = append(entries, sstEntry{
				key:       append([]byte(nil), kv.Key...),
				value:     append([]byte(nil), kv.Value...),
				version:   kv.Version,
				tombstone: tomb,
			})
			return nil
		})
		t := newSSTable(s.nextTableID.Add(1), entries)
		s.compactionBytes.Add(t.bytes)
		s.flushes.Add(1)
		if s.opts.Dir != "" {
			if err := t.persist(s.fs, s.opts.Dir, s.tablePath(t.id)); err != nil {
				// Keep serving from memory; the table stays unpersisted
				// and the WAL (if any) keeps covering its records.
				t.path = ""
			}
		}
		s.mu.Lock()
		s.levels[0] = append([]*sstable{t}, s.levels[0]...)
		s.imm = s.imm[:len(s.imm)-1]
		if t.path == "" && s.opts.Dir != "" {
			s.persistFailed = true
		}
		var drop uint64
		if s.wal != nil && !s.persistFailed {
			// The flushed memtable's records are on fsynced disk; its
			// segments can go — except any segment still feeding an
			// unflushed memtable (racing appends can land one early).
			drop = it.walSeg
			floor := func(minSeg uint64) {
				if minSeg != noSeg && minSeg > 0 && minSeg-1 < drop {
					drop = minSeg - 1
				}
			}
			for _, other := range s.imm {
				floor(other.minSeg)
			}
			floor(s.memMinSeg)
		}
		s.mu.Unlock()
		if drop > 0 {
			_ = s.wal.DropThrough(drop)
		}
	}
	s.compactLevels()
}

func (s *Store) compactLevels() {
	for lvl := 0; lvl < s.opts.MaxLevels-1; lvl++ {
		s.mu.Lock()
		if len(s.levels[lvl]) <= s.opts.FanoutLimit {
			s.mu.Unlock()
			continue
		}
		// Merge this level plus the next (so versions resolve globally
		// for the merged key range) into one run in the next level.
		victims := append(append([]*sstable(nil), s.levels[lvl]...), s.levels[lvl+1]...)
		s.mu.Unlock()

		t := newSSTable(s.nextTableID.Add(1), mergeTables(victims))
		s.compactionBytes.Add(t.bytes)
		s.compactions.Add(1)
		persisted := true
		if s.opts.Dir != "" {
			if err := t.persist(s.fs, s.opts.Dir, s.tablePath(t.id)); err != nil {
				t.path = ""
				persisted = false
			}
		}
		s.mu.Lock()
		s.levels[lvl] = nil
		s.levels[lvl+1] = []*sstable{t}
		if !persisted {
			s.persistFailed = true
		}
		s.mu.Unlock()
		// Remove victim files only once the merged table is durably on
		// disk; otherwise a crash would lose both.
		if persisted {
			removed := false
			for _, v := range victims {
				if v.path != "" {
					_ = s.fs.Remove(v.path)
					removed = true
				}
			}
			if removed {
				_ = s.fs.SyncDir(s.opts.Dir)
			}
		}
	}
}

// Scan merges live pairs in [start, end) from every source in key order.
func (s *Store) Scan(start, end []byte, limit int) ([]store.KV, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, store.ErrClosed
	}
	best, err := s.collectLocked(start, end)
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(best))
	for k, e := range best {
		if e.tombstone {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	out := make([]store.KV, len(keys))
	for i, k := range keys {
		e := best[k]
		out[i] = store.KV{Key: []byte(k), Value: e.value, Version: e.version}
	}
	return out, nil
}

// collectLocked gathers the best (highest-version) record per key in
// [start, end), tombstones included. Caller holds mu.
func (s *Store) collectLocked(start, end []byte) (map[string]sstEntry, error) {
	best := map[string]sstEntry{}
	collect := func(e sstEntry) {
		if cur, ok := best[string(e.key)]; !ok || e.version > cur.version {
			best[string(e.key)] = e
		}
	}
	memCollect := func(m *btree.Store) error {
		return m.ScanAll(start, end, func(k, v []byte, ver uint64, tomb bool) error {
			collect(sstEntry{
				key:       append([]byte(nil), k...),
				value:     append([]byte(nil), v...),
				version:   ver,
				tombstone: tomb,
			})
			return nil
		})
	}
	if err := memCollect(s.mem); err != nil {
		return nil, err
	}
	for _, m := range s.imm {
		if err := memCollect(m.mem); err != nil {
			return nil, err
		}
	}
	for _, level := range s.levels {
		for _, t := range level {
			_ = t.scanRange(start, end, func(e sstEntry) error {
				collect(e)
				return nil
			})
		}
	}
	return best, nil
}

// Len returns the number of live keys (a full merge count).
func (s *Store) Len() int {
	n := 0
	_ = s.Snapshot(0, func(_ store.KV, tomb bool) error {
		if !tomb {
			n++
		}
		return nil
	})
	return n
}

// Snapshot calls fn for every record with version > since, tombstones
// included, in key order: the freshest record of each key across the
// memtables and every level.
func (s *Store) Snapshot(since uint64, fn func(kv store.KV, tombstone bool) error) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return store.ErrClosed
	}
	best, err := s.collectLocked(nil, nil)
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(best))
	for k, e := range best {
		if e.version > since {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := best[k]
		if err := fn(store.KV{Key: []byte(k), Value: e.value, Version: e.version}, e.tombstone); err != nil {
			return err
		}
	}
	return nil
}

// MaxVersion returns the highest version assigned or observed.
func (s *Store) MaxVersion() uint64 { return s.maxVer.Load() }

// RecoveredVersion returns the version watermark recovered at Open (from
// sstables plus WAL replay); 0 when the store started empty.
func (s *Store) RecoveredVersion() uint64 { return s.recoveredVer }

// Stats reports flush/compaction activity for ablation benches.
type Stats struct {
	Flushes         int64
	Compactions     int64
	CompactionBytes int64
	Tables          int
}

// Stats returns a snapshot of compaction counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	tables := 0
	for _, level := range s.levels {
		tables += len(level)
	}
	s.mu.RUnlock()
	return Stats{
		Flushes:         s.flushes.Load(),
		Compactions:     s.compactions.Load(),
		CompactionBytes: s.compactionBytes.Load(),
		Tables:          tables,
	}
}

// WAL exposes the underlying log for white-box tests; nil unless Durable.
func (s *Store) WAL() *wal.Log { return s.wal }

// Flush forces the current memtable to disk-level tables and compacts.
func (s *Store) Flush() {
	s.mu.Lock()
	if s.mem.Items() > 0 {
		s.sealMemLocked()
	}
	s.mu.Unlock()
	s.flushAndCompact()
}

// Close stops background compaction and, when the store has a directory,
// flushes the memtable so a clean shutdown never loses data. In durable
// mode the WAL is reset once everything reached sstables (or kept intact
// if any persist failed) and closed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.doneCh)
	s.bg.Wait()
	if s.opts.Dir != "" {
		s.mu.Lock()
		if s.mem.Items() > 0 {
			s.sealMemLocked()
		}
		s.mu.Unlock()
		s.flushAndCompact()
	}
	if s.wal != nil {
		s.mu.Lock()
		clean := !s.persistFailed && len(s.imm) == 0
		s.mu.Unlock()
		if clean {
			// Everything is in fsynced sstables; the log is obsolete.
			_ = s.wal.Reset()
		}
		return s.wal.Close()
	}
	return nil
}

var (
	_ store.Engine    = (*Store)(nil)
	_ store.Versioned = (*Store)(nil)
	_ store.Recovered = (*Store)(nil)
)
