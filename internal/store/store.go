// Package store defines the datalet storage engine contract and common
// helpers. An Engine is a single-node KV store with last-writer-wins
// versioning; the four concrete engines (ht, applog, btree, lsm) mirror the
// data-structure families the paper evaluates — hash table (tHT), persistent
// log (tLog), ordered tree (tMT/Masstree), and LSM-tree (LevelDB-class).
//
// Versioning: every write carries a uint64 version. Version 0 asks the
// engine to assign the next locally monotonic version (normal single-node
// writes); a non-zero version is applied only if it is >= the stored
// version (replicated writes and log replay), which makes propagation
// idempotent and order-insensitive where eventual consistency permits.
// Deletes write tombstones under the same rule so a late Put cannot
// resurrect a newer Delete. An engine keeps every tombstone it writes: one
// dropped early lets any older version of its key still in flight on
// another replica come back, and takes the deletion out of Snapshot, which
// is how a replica that missed it learns of it.
package store

import (
	"bytes"
	"errors"
)

// KV is one key/value pair with its version, as surfaced by Scan and
// Snapshot (a tombstone's Value is empty).
type KV struct {
	Key     []byte
	Value   []byte
	Version uint64
}

// ErrUnordered is returned by Scan on engines without ordered iteration
// (hash table, append-only log).
var ErrUnordered = errors.New("store: engine does not support ordered scans")

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("store: engine is closed")

// Engine is a single-node KV store.
//
// All methods are safe for concurrent use. Key and value slices passed in
// are copied; slices returned are private copies the caller owns. A read
// appends into a buffer the caller owns (AppendGet), so serving a value
// costs one copy, from the engine into the reply.
type Engine interface {
	// Name identifies the engine family ("ht", "applog", "btree", "lsm").
	Name() string
	// Put stores value under key. If version is zero the engine assigns
	// the next local version; otherwise the write applies only when
	// version >= the stored version. It returns the version stored (or
	// the winning existing version when the write lost).
	Put(key, value []byte, version uint64) (uint64, error)
	// AppendGet appends key's live value to dst and returns the extended
	// slice and the value's version; ok is false when the key is absent or
	// deleted. dst's first len(dst) bytes are kept. A miss, a tombstone and
	// an error return dst unchanged. The appended bytes are a copy: the
	// result never aliases engine memory, so a later write of the key does
	// not change it. The engine grows dst only when its capacity is short.
	AppendGet(dst, key []byte) (value []byte, version uint64, ok bool, err error)
	// Delete removes key under the same versioning rule as Put. existed
	// reports whether a live value was visible before the call; winner is
	// the version now governing the key (the tombstone's version when the
	// delete applied, or the newer existing version when it lost).
	Delete(key []byte, version uint64) (existed bool, winner uint64, err error)
	// Scan returns live pairs with start <= key < end in key order, up to
	// limit (0 = unbounded). An empty end means +infinity. Engines
	// without ordered iteration return ErrUnordered.
	Scan(start, end []byte, limit int) ([]KV, error)
	// Len returns the number of live keys.
	Len() int
	// Snapshot calls fn for every record with version > since, tombstones
	// included (tombstone true, Value empty): since 0 lists the whole
	// table, a replica's watermark exactly the writes it has missed. It is
	// the one change feed recovery, catch-up, repair and backup read.
	// Iteration order is engine-specific. fn must not retain the KV's
	// slices past the call.
	Snapshot(since uint64, fn func(kv KV, tombstone bool) error) error
	// Close releases resources. The engine must not be used afterwards.
	Close() error
}

// Versioned is implemented by engines that expose their monotonic version
// counter. The datalet reports it as the table's current watermark.
type Versioned interface {
	// MaxVersion returns the highest version the engine has assigned or
	// observed.
	MaxVersion() uint64
}

// Recovered is implemented by durable engines that replay local state on
// open. RecoveredVersion is the watermark captured at the end of that
// replay — before any new writes — so a rejoining node can ask a peer for
// exactly the writes it missed while down. The live MaxVersion is wrong
// for that purpose: a node rejoins the write path before catch-up runs,
// so new writes bump the counter past the gap.
type Recovered interface {
	// RecoveredVersion returns the engine's version watermark as of the
	// end of open-time recovery (0 when the engine started empty).
	RecoveredVersion() uint64
}

// InRange reports whether key falls within [start, end); empty end means
// +infinity.
func InRange(key, start, end []byte) bool {
	if bytes.Compare(key, start) < 0 {
		return false
	}
	return len(end) == 0 || bytes.Compare(key, end) < 0
}

// CloneBytes returns a private copy of b (nil stays nil).
func CloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
