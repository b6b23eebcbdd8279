// Package faultfs is a seeded fault-injecting wal.FS — the storage
// analogue of faultnet. It models the two-level durability contract of a
// real filesystem: every mutation lands in *live* state immediately, but
// only file Sync (content + existence at that path) and SyncDir (renames
// and removes) promote it to the *durable* image. Crash() replaces live
// state with the durable image, exactly as a kill -9 plus power cut
// would; Freeze() makes all subsequent mutations silent no-ops so an
// in-process "crash" can run graceful Close paths without the close
// adding durability the dead process wouldn't have had. Write and sync
// errors can be injected after a countdown, and CrashTorn() keeps a
// seeded-random prefix of each un-synced tail to fabricate torn final
// records.
package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"bespokv/internal/store/wal"
)

// FS implements wal.FS with crash and error injection. Safe for
// concurrent use.
type FS struct {
	mu      sync.Mutex
	rng     *rand.Rand
	live    map[string][]byte // current (volatile) filesystem
	durable map[string][]byte // what survives a crash
	dirty   map[string]int    // lowest live offset differing from durable; absent = in sync
	pending []dirOp           // renames/removes awaiting SyncDir
	frozen  bool

	// error injection: countdowns decrement per matching op; once one
	// reaches zero the op fails with the injected error until cleared.
	writeErrAfter int
	writeErr      error
	syncErrAfter  int
	syncErr       error
}

// dirOp is a directory-level mutation not yet made durable. For renames,
// durable content captured at rename time moves with the name (engines
// follow the fsync-file-then-rename-then-fsync-dir discipline, so the
// capture point matches reality).
type dirOp struct {
	remove  bool
	path    string // rename destination, or removed path
	oldPath string // rename source ("" for removes)
	content []byte // durable content travelling with a rename
}

// New returns an empty fault-injecting filesystem. The seed drives torn
// tail lengths in CrashTorn so runs replay deterministically.
func New(seed int64) *FS {
	return &FS{
		rng:     rand.New(rand.NewSource(seed)),
		live:    map[string][]byte{},
		durable: map[string][]byte{},
		dirty:   map[string]int{},
	}
}

// ---- crash plane ----

// Freeze makes every subsequent mutation (writes, truncates, syncs,
// renames, removes) a silent no-op. Reads keep working. Use before
// running an in-process engine Close so graceful-shutdown flushes cannot
// make anything durable past the crash point.
func (fs *FS) Freeze() {
	fs.mu.Lock()
	fs.frozen = true
	fs.mu.Unlock()
}

// Frozen reports whether the filesystem is in the post-Freeze state.
func (fs *FS) Frozen() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.frozen
}

// Crash discards everything volatile — un-fsynced writes, un-SyncDir'd
// renames and removes — reverting to the durable image, and unfreezes.
func (fs *FS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashLocked(false)
}

// CrashTorn is Crash but files that had un-fsynced appended bytes keep a
// seeded-random prefix of them, modelling a torn final write caught
// mid-flight by the power cut.
func (fs *FS) CrashTorn() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashLocked(true)
}

func (fs *FS) crashLocked(torn bool) {
	next := make(map[string][]byte, len(fs.durable))
	// Deterministic order so seeded torn lengths replay.
	paths := make([]string, 0, len(fs.durable))
	for p := range fs.durable {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	fs.dirty = map[string]int{}
	for _, p := range paths {
		img := append([]byte(nil), fs.durable[p]...)
		if torn {
			if liveData, ok := fs.live[p]; ok && len(liveData) > len(img) {
				tail := liveData[len(img):]
				keep := fs.rng.Intn(len(tail) + 1)
				if keep > 0 {
					// The surviving torn tail is live-only state again.
					fs.dirty[p] = len(img)
					img = append(img, tail[:keep]...)
				}
			}
		}
		next[p] = img
	}
	fs.live = next
	fs.pending = nil
	fs.frozen = false
	fs.writeErr, fs.syncErr = nil, nil
}

// ---- error injection ----

// FailWrites makes WriteAt fail with err after the next n writes
// (n=0 fails immediately). A negative n clears the injection.
func (fs *FS) FailWrites(n int, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n < 0 {
		fs.writeErr = nil
		return
	}
	fs.writeErrAfter, fs.writeErr = n, err
}

// FailSyncs makes file Sync and SyncDir fail with err after the next n
// syncs (n=0 fails immediately). A negative n clears the injection.
func (fs *FS) FailSyncs(n int, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n < 0 {
		fs.syncErr = nil
		return
	}
	fs.syncErrAfter, fs.syncErr = n, err
}

// ---- wal.FS ----

type handle struct {
	fs   *FS
	path string
}

// OpenFile opens path, creating it (live-only until synced) if absent.
func (fs *FS) OpenFile(path string) (wal.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.live[path]; !ok && !fs.frozen {
		fs.live[path] = []byte{}
		fs.markDirtyLocked(path, 0)
	}
	return handle{fs: fs, path: path}, nil
}

// markDirtyLocked lowers path's dirty watermark to off: everything at and
// beyond it must be re-promoted to the durable image on the next Sync.
func (fs *FS) markDirtyLocked(path string, off int) {
	if cur, ok := fs.dirty[path]; !ok || off < cur {
		fs.dirty[path] = off
	}
}

func (h handle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	data, ok := h.fs.live[h.path]
	if !ok {
		return 0, fmt.Errorf("faultfs: read %s: no such file", h.path)
	}
	if off >= int64(len(data)) {
		return 0, fmt.Errorf("faultfs: read %s at %d beyond EOF %d", h.path, off, len(data))
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, fmt.Errorf("faultfs: short read %s %d/%d", h.path, n, len(p))
	}
	return n, nil
}

func (h handle) WriteAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.frozen {
		return len(p), nil // silently swallowed: the process is dead
	}
	if h.fs.writeErr != nil {
		if h.fs.writeErrAfter <= 0 {
			return 0, h.fs.writeErr
		}
		h.fs.writeErrAfter--
	}
	data, ok := h.fs.live[h.path]
	if !ok {
		return 0, fmt.Errorf("faultfs: write %s: no such file", h.path)
	}
	if need := off + int64(len(p)); need > int64(len(data)) {
		data = append(data, make([]byte, need-int64(len(data)))...)
	}
	copy(data[off:], p)
	h.fs.live[h.path] = data
	h.fs.markDirtyLocked(h.path, int(off))
	return len(p), nil
}

func (h handle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.frozen {
		return nil
	}
	data, ok := h.fs.live[h.path]
	if !ok {
		return fmt.Errorf("faultfs: truncate %s: no such file", h.path)
	}
	if size < int64(len(data)) {
		h.fs.live[h.path] = data[:size]
		h.fs.markDirtyLocked(h.path, int(size))
	}
	return nil
}

func (h handle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.frozen {
		return nil
	}
	if h.fs.syncErr != nil {
		if h.fs.syncErrAfter <= 0 {
			return h.fs.syncErr
		}
		h.fs.syncErrAfter--
	}
	data, ok := h.fs.live[h.path]
	if !ok {
		return fmt.Errorf("faultfs: sync %s: no such file", h.path)
	}
	// Promote only the dirty suffix: a clean prefix is byte-identical in
	// both images, and copying the whole file per sync would make an
	// append-heavy WAL quadratic. Reusing dur's capacity keeps the
	// append-fsync-append pattern amortized O(delta); the backing array is
	// owned exclusively by the durable image (crash, rename and
	// DurableBytes all copy out of it).
	if d, dirtyOK := h.fs.dirty[h.path]; dirtyOK {
		dur := h.fs.durable[h.path]
		if d > len(dur) {
			d = len(dur)
		}
		if d > len(data) {
			d = len(data)
		}
		h.fs.durable[h.path] = append(dur[:d], data[d:]...)
		delete(h.fs.dirty, h.path)
	}
	return nil
}

func (h handle) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	data, ok := h.fs.live[h.path]
	if !ok {
		return 0, fmt.Errorf("faultfs: size %s: no such file", h.path)
	}
	return int64(len(data)), nil
}

func (h handle) Close() error { return nil }

// ReadDir lists live file names directly inside dir, sorted.
func (fs *FS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	prefix := strings.TrimSuffix(dir, "/") + "/"
	var names []string
	for p := range fs.live {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := strings.TrimPrefix(p, prefix)
		if !strings.Contains(rest, "/") {
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll is a no-op: directories exist implicitly.
func (fs *FS) MkdirAll(string) error { return nil }

// Rename atomically replaces newPath in live state; durable only after
// SyncDir on the parent directory.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return nil
	}
	data, ok := fs.live[oldPath]
	if !ok {
		return fmt.Errorf("faultfs: rename %s: no such file", oldPath)
	}
	fs.live[newPath] = data
	delete(fs.live, oldPath)
	delete(fs.dirty, oldPath)
	// The destination's live content has no relation to whatever durable
	// image the name held before; resync it from the start.
	fs.dirty[newPath] = 0
	fs.pending = append(fs.pending, dirOp{
		path:    newPath,
		oldPath: oldPath,
		content: append([]byte(nil), fs.durable[oldPath]...),
	})
	return nil
}

// Remove deletes path from live state; durable removal needs SyncDir.
func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return nil
	}
	if _, ok := fs.live[path]; !ok {
		return fmt.Errorf("faultfs: remove %s: no such file", path)
	}
	delete(fs.live, path)
	delete(fs.dirty, path)
	fs.pending = append(fs.pending, dirOp{remove: true, path: path})
	return nil
}

// SyncDir makes pending renames and removes under dir durable, in order.
func (fs *FS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return nil
	}
	if fs.syncErr != nil {
		if fs.syncErrAfter <= 0 {
			return fs.syncErr
		}
		fs.syncErrAfter--
	}
	prefix := strings.TrimSuffix(dir, "/") + "/"
	kept := fs.pending[:0]
	for _, op := range fs.pending {
		inDir := strings.HasPrefix(op.path, prefix) || (op.oldPath != "" && strings.HasPrefix(op.oldPath, prefix))
		if !inDir {
			kept = append(kept, op)
			continue
		}
		if op.remove {
			delete(fs.durable, op.path)
			continue
		}
		if _, wasDurable := fs.durable[op.oldPath]; wasDurable || len(op.content) > 0 {
			fs.durable[op.path] = op.content
		} else {
			// Renaming a never-synced file durably creates an empty
			// entry only if the destination previously existed; the
			// safe model is: nothing durable moved, so the crash loses
			// the destination too.
			delete(fs.durable, op.path)
		}
		delete(fs.durable, op.oldPath)
	}
	fs.pending = kept
	return nil
}

var _ wal.FS = (*FS)(nil)

// ErrInjected is a convenience error for tests injecting faults.
var ErrInjected = errors.New("faultfs: injected fault")
