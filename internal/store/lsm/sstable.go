package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"bespokv/internal/store/wal"
)

// sstEntry is one record inside a sorted table.
type sstEntry struct {
	key       []byte
	value     []byte
	version   uint64
	tombstone bool
}

// bloom is a split-block-free Bloom filter with double hashing, sized at
// ~10 bits per key (≈1% false positives, LevelDB's default).
type bloom struct {
	bits  []uint64
	nbits uint64
	k     int
}

func newBloom(n int) *bloom {
	if n < 1 {
		n = 1
	}
	nbits := uint64(n * 10)
	return &bloom{bits: make([]uint64, (nbits+63)/64), nbits: nbits, k: 7}
}

func bloomHashes(key []byte) (uint64, uint64) {
	h := fnv.New64a()
	h.Write(key)
	h1 := h.Sum64()
	h2 := h1>>33 | h1<<31
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	return h1, h2
}

func (b *bloom) add(key []byte) {
	h1, h2 := bloomHashes(key)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.nbits
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

func (b *bloom) mayContain(key []byte) bool {
	h1, h2 := bloomHashes(key)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.nbits
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// sstable is one immutable sorted run. Entries live in memory; when the
// store has a directory each table is also persisted as a self-describing
// .sst file so the tree survives restarts.
type sstable struct {
	id      uint64
	entries []sstEntry
	filter  *bloom
	bytes   int64
	path    string // "" when memory-only
}

func newSSTable(id uint64, entries []sstEntry) *sstable {
	t := &sstable{id: id, entries: entries, filter: newBloom(len(entries))}
	for i := range entries {
		t.filter.add(entries[i].key)
		t.bytes += int64(len(entries[i].key) + len(entries[i].value) + 16)
	}
	return t
}

// get returns the entry for key, if present.
func (t *sstable) get(key []byte) (sstEntry, bool) {
	if !t.filter.mayContain(key) {
		return sstEntry{}, false
	}
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.entries[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.entries) && bytes.Equal(t.entries[lo].key, key) {
		return t.entries[lo], true
	}
	return sstEntry{}, false
}

// scanRange calls fn for every entry with start <= key < end.
func (t *sstable) scanRange(start, end []byte, fn func(sstEntry) error) error {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.entries[mid].key, start) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for ; lo < len(t.entries); lo++ {
		if len(end) != 0 && bytes.Compare(t.entries[lo].key, end) >= 0 {
			return nil
		}
		if err := fn(t.entries[lo]); err != nil {
			return err
		}
	}
	return nil
}

const sstMagic = 0x73737462 // "sstb"

// persist writes the table to path as a self-describing file, routed
// through the wal.FS so fault injection covers table I/O. The file is
// fsynced before the rename and the rename is fsynced via the parent
// directory — a table counts as flushed only once both complete, so a
// crash can never leave a referenced-but-hollow .sst behind.
func (t *sstable) persist(fs wal.FS, dir, path string) error {
	var buf bytes.Buffer
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], sstMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(t.entries)))
	buf.Write(hdr[:])
	var scratch []byte
	for i := range t.entries {
		e := &t.entries[i]
		scratch = scratch[:0]
		scratch = binary.AppendUvarint(scratch, uint64(len(e.key)))
		scratch = append(scratch, e.key...)
		scratch = binary.AppendUvarint(scratch, uint64(len(e.value)))
		scratch = append(scratch, e.value...)
		scratch = binary.AppendUvarint(scratch, e.version)
		if e.tombstone {
			scratch = append(scratch, 1)
		} else {
			scratch = append(scratch, 0)
		}
		buf.Write(scratch)
	}
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp)
	if err != nil {
		return err
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return err
	}
	if _, err := f.WriteAt(buf.Bytes(), 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return err
	}
	if err := fs.SyncDir(dir); err != nil {
		return err
	}
	t.path = path
	return nil
}

// loadSSTable reads a persisted table back into memory through the FS.
func loadSSTable(fs wal.FS, id uint64, path string) (*sstable, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	raw := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(raw, 0); err != nil {
			return nil, err
		}
	}
	if len(raw) < 12 || binary.LittleEndian.Uint32(raw[0:4]) != sstMagic {
		return nil, fmt.Errorf("lsm: %s is not an sstable", path)
	}
	n := binary.LittleEndian.Uint64(raw[4:12])
	raw = raw[12:]
	entries := make([]sstEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		klen, w := binary.Uvarint(raw)
		if w <= 0 || klen > uint64(len(raw)-w) {
			return nil, fmt.Errorf("lsm: corrupt key in %s", path)
		}
		raw = raw[w:]
		key := append([]byte(nil), raw[:klen]...)
		raw = raw[klen:]
		vlen, w := binary.Uvarint(raw)
		if w <= 0 || vlen > uint64(len(raw)-w) {
			return nil, fmt.Errorf("lsm: corrupt value in %s", path)
		}
		raw = raw[w:]
		value := append([]byte(nil), raw[:vlen]...)
		raw = raw[vlen:]
		version, w := binary.Uvarint(raw)
		if w <= 0 || len(raw) < w+1 {
			return nil, fmt.Errorf("lsm: corrupt version in %s", path)
		}
		tomb := raw[w] == 1
		raw = raw[w+1:]
		entries = append(entries, sstEntry{key: key, value: value, version: version, tombstone: tomb})
	}
	t := newSSTable(id, entries)
	t.path = path
	return t, nil
}

// mergeTables k-way merges newest-first tables into one sorted run,
// keeping the highest version per key, tombstones included.
func mergeTables(tables []*sstable) (out []sstEntry) {
	// tables[0] is newest. Walk all tables with cursors picking the
	// smallest key; on ties the newest table wins and the rest advance.
	cursors := make([]int, len(tables))
	for {
		best := -1
		for i, t := range tables {
			if cursors[i] >= len(t.entries) {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			c := bytes.Compare(t.entries[cursors[i]].key, tables[best].entries[cursors[best]].key)
			if c < 0 {
				best = i
			}
			// On c==0 keep the earlier (newer) table as best.
		}
		if best == -1 {
			return out
		}
		winner := tables[best].entries[cursors[best]]
		// Resolve ties across tables by version, advancing every cursor
		// that points at the same key.
		for i, t := range tables {
			if cursors[i] >= len(t.entries) {
				continue
			}
			e := t.entries[cursors[i]]
			if !bytes.Equal(e.key, winner.key) {
				continue
			}
			if e.version > winner.version {
				winner = e
			}
			cursors[i]++
		}
		out = append(out, winner)
	}
}
