// Package btree implements the tMT datalet engine: an in-memory B+-tree
// with linked leaves, the reproduction's stand-in for Masstree. It is the
// only hash-free engine with cheap ordered iteration, so it backs range
// queries (§IV-B) and the read-intensive analytics side of Fig. 6.
//
// Deletions write tombstone items in place, so the tree never rebalances on
// delete; tombstones are skipped by reads and kept, as store.Engine asks.
package btree

import (
	"bytes"
	"sync"

	"bespokv/internal/store"
)

// degree is the maximum number of items per leaf and children per internal
// node. 64 keeps nodes around a few cache lines of key pointers.
const degree = 64

type entry struct {
	value     []byte
	version   uint64
	tombstone bool
}

type node struct {
	leaf     bool
	keys     [][]byte // per-item (leaf) or separator (internal) keys
	items    []entry  // leaf payloads, parallel to keys
	children []*node  // internal fan-out, len(keys)+1
	next     *node    // leaf sibling link for ordered scans
}

// Store is the B+-tree engine.
type Store struct {
	mu     sync.RWMutex
	root   *node
	live   int
	maxVer uint64
	closed bool
}

// New returns an empty B+-tree engine.
func New() *Store {
	return &Store{root: &node{leaf: true}}
}

// Name reports "btree".
func (s *Store) Name() string { return "btree" }

// findLeaf descends to the leaf that owns key, remembering the path for
// splits.
func (s *Store) findLeaf(key []byte, path *[]*node) *node {
	n := s.root
	for !n.leaf {
		if path != nil {
			*path = append(*path, n)
		}
		i := searchFirstGreater(n.keys, key)
		n = n.children[i]
	}
	return n
}

// searchFirstGreater returns the index of the first key strictly greater
// than k (internal-node child selection: child i holds keys <= keys[i]).
func searchFirstGreater(keys [][]byte, k []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchLeaf returns the position of k in a leaf and whether it is present.
func searchLeaf(keys [][]byte, k []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && bytes.Equal(keys[lo], k)
}

func (s *Store) write(key []byte, e entry) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, store.ErrClosed
	}
	if e.version == 0 {
		s.maxVer++
		e.version = s.maxVer
	} else if e.version > s.maxVer {
		s.maxVer = e.version
	}
	var path []*node
	leaf := s.findLeaf(key, &path)
	i, found := searchLeaf(leaf.keys, key)
	if found {
		old := leaf.items[i]
		if e.version < old.version {
			return old.version, nil
		}
		if old.tombstone && !e.tombstone {
			s.live++
		} else if !old.tombstone && e.tombstone {
			s.live--
		}
		leaf.items[i] = e
		return e.version, nil
	}
	leaf.keys = append(leaf.keys, nil)
	copy(leaf.keys[i+1:], leaf.keys[i:])
	leaf.keys[i] = store.CloneBytes(key)
	leaf.items = append(leaf.items, entry{})
	copy(leaf.items[i+1:], leaf.items[i:])
	leaf.items[i] = e
	if !e.tombstone {
		s.live++
	}
	if len(leaf.keys) >= degree {
		s.splitLeaf(leaf, path)
	}
	return e.version, nil
}

// splitLeaf splits an overfull leaf, then propagates splits up the
// remembered path.
func (s *Store) splitLeaf(leaf *node, path []*node) {
	mid := len(leaf.keys) / 2
	right := &node{leaf: true, next: leaf.next}
	right.keys = append(right.keys, leaf.keys[mid:]...)
	right.items = append(right.items, leaf.items[mid:]...)
	leaf.keys = leaf.keys[:mid:mid]
	leaf.items = leaf.items[:mid:mid]
	leaf.next = right
	s.insertUp(path, leaf, right, right.keys[0])
}

// insertUp installs right as the sibling of left under the deepest node in
// path, splitting internal nodes as needed. sep is the smallest key in
// right's subtree.
func (s *Store) insertUp(path []*node, left, right *node, sep []byte) {
	for {
		if len(path) == 0 {
			s.root = &node{
				keys:     [][]byte{sep},
				children: []*node{left, right},
			}
			return
		}
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		i := searchFirstGreater(parent.keys, sep)
		parent.keys = append(parent.keys, nil)
		copy(parent.keys[i+1:], parent.keys[i:])
		parent.keys[i] = sep
		parent.children = append(parent.children, nil)
		copy(parent.children[i+2:], parent.children[i+1:])
		parent.children[i+1] = right
		if len(parent.children) <= degree {
			return
		}
		mid := len(parent.keys) / 2
		sep = parent.keys[mid]
		newRight := &node{
			keys:     append([][]byte(nil), parent.keys[mid+1:]...),
			children: append([]*node(nil), parent.children[mid+1:]...),
		}
		parent.keys = parent.keys[:mid:mid]
		parent.children = parent.children[: mid+1 : mid+1]
		left, right = parent, newRight
	}
}

// Put stores value under key with LWW semantics.
func (s *Store) Put(key, value []byte, version uint64) (uint64, error) {
	return s.write(key, entry{value: store.CloneBytes(value), version: version})
}

// Delete writes a tombstone for key.
func (s *Store) Delete(key []byte, version uint64) (bool, uint64, error) {
	s.mu.RLock()
	_, _, existed, _ := s.appendGetLocked(nil, key)
	s.mu.RUnlock()
	winner, err := s.write(key, entry{version: version, tombstone: true})
	if err != nil {
		return false, 0, err
	}
	return existed, winner, nil
}

func (s *Store) appendGetLocked(dst, key []byte) ([]byte, uint64, bool, error) {
	if s.closed {
		return dst, 0, false, store.ErrClosed
	}
	leaf := s.findLeaf(key, nil)
	i, found := searchLeaf(leaf.keys, key)
	if !found || leaf.items[i].tombstone {
		return dst, 0, false, nil
	}
	return append(dst, leaf.items[i].value...), leaf.items[i].version, true, nil
}

// AppendGet appends key's live value to dst (see store.Engine).
func (s *Store) AppendGet(dst, key []byte) ([]byte, uint64, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.appendGetLocked(dst, key)
}

// Scan returns live pairs in [start, end) in key order.
func (s *Store) Scan(start, end []byte, limit int) ([]store.KV, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, store.ErrClosed
	}
	var out []store.KV
	leaf := s.findLeaf(start, nil)
	i, _ := searchLeaf(leaf.keys, start)
	for leaf != nil {
		for ; i < len(leaf.keys); i++ {
			if len(end) != 0 && bytes.Compare(leaf.keys[i], end) >= 0 {
				return out, nil
			}
			if leaf.items[i].tombstone {
				continue
			}
			out = append(out, store.KV{
				Key:     store.CloneBytes(leaf.keys[i]),
				Value:   store.CloneBytes(leaf.items[i].value),
				Version: leaf.items[i].version,
			})
			if limit > 0 && len(out) >= limit {
				return out, nil
			}
		}
		leaf = leaf.next
		i = 0
	}
	return out, nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

func (s *Store) leftmostLeaf() *node {
	n := s.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

// Snapshot calls fn for every item with version > since, tombstones
// included, in key order. The LSM engine flushes memtables through it, so
// deletions reach its tables.
func (s *Store) Snapshot(since uint64, fn func(kv store.KV, tombstone bool) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return store.ErrClosed
	}
	leaf := s.leftmostLeaf()
	for leaf != nil {
		for i := range leaf.keys {
			it := leaf.items[i]
			if it.version <= since {
				continue
			}
			if err := fn(store.KV{Key: leaf.keys[i], Value: it.value, Version: it.version}, it.tombstone); err != nil {
				return err
			}
		}
		leaf = leaf.next
	}
	return nil
}

// GetAll returns the item for key including tombstones; the LSM engine
// uses it to read the memtable without filtering deletions. value is the
// stored slice itself, which no write changes (a write replaces the item):
// the caller must not modify it.
func (s *Store) GetAll(key []byte) (value []byte, version uint64, tombstone, found bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, 0, false, false
	}
	leaf := s.findLeaf(key, nil)
	i, ok := searchLeaf(leaf.keys, key)
	if !ok {
		return nil, 0, false, false
	}
	it := leaf.items[i]
	return it.value, it.version, it.tombstone, true
}

// ScanAll calls fn for every item (including tombstones) with
// start <= key < end in key order; empty end means +infinity. The LSM
// engine uses it to merge memtable ranges. fn must not retain the slices.
func (s *Store) ScanAll(start, end []byte, fn func(key, value []byte, version uint64, tombstone bool) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return store.ErrClosed
	}
	leaf := s.findLeaf(start, nil)
	i, _ := searchLeaf(leaf.keys, start)
	for leaf != nil {
		for ; i < len(leaf.keys); i++ {
			if len(end) != 0 && bytes.Compare(leaf.keys[i], end) >= 0 {
				return nil
			}
			it := leaf.items[i]
			if err := fn(leaf.keys[i], it.value, it.version, it.tombstone); err != nil {
				return err
			}
		}
		leaf = leaf.next
		i = 0
	}
	return nil
}

// Items returns the total number of items including tombstones; the LSM
// engine uses it to size memtable flushes.
func (s *Store) Items() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	leaf := s.leftmostLeaf()
	for leaf != nil {
		n += len(leaf.keys)
		leaf = leaf.next
	}
	return n
}

// Close marks the engine closed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

var _ store.Engine = (*Store)(nil)
