// Package enginetest is a conformance suite every store.Engine must pass.
// Engine packages call Run from their tests with a factory; the suite
// covers the LWW contract, tombstone semantics (a tombstone outlives leaf
// splits, flushes and compactions), concurrency safety, scans on ordered
// engines, the Snapshot change feed, and a randomized model-based
// check against a reference map (via testing/quick).
package enginetest

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"bespokv/internal/store"
)

// Factory creates a fresh, empty engine for one subtest. Cleanup runs via
// t.Cleanup, so factories may allocate temp directories with t.TempDir.
type Factory func(t *testing.T) store.Engine

// Run executes the full conformance suite against engines from f.
func Run(t *testing.T, f Factory) {
	t.Run("PutGet", func(t *testing.T) { testPutGet(t, f(t)) })
	t.Run("GetMissing", func(t *testing.T) { testGetMissing(t, f(t)) })
	t.Run("Overwrite", func(t *testing.T) { testOverwrite(t, f(t)) })
	t.Run("Delete", func(t *testing.T) { testDelete(t, f(t)) })
	t.Run("DeleteMissing", func(t *testing.T) { testDeleteMissing(t, f(t)) })
	t.Run("VersionLWW", func(t *testing.T) { testVersionLWW(t, f(t)) })
	t.Run("TombstoneBlocksStalePut", func(t *testing.T) { testTombstoneBlocksStalePut(t, f) })
	t.Run("VersionsMonotonicAfterReplicated", func(t *testing.T) { testVersionMonotonic(t, f(t)) })
	t.Run("Len", func(t *testing.T) { testLen(t, f(t)) })
	t.Run("Snapshot", func(t *testing.T) { testSnapshot(t, f(t)) })
	t.Run("SnapshotError", func(t *testing.T) { testSnapshotError(t, f(t)) })
	t.Run("EmptyValue", func(t *testing.T) { testEmptyValue(t, f(t)) })
	t.Run("LargeValues", func(t *testing.T) { testLargeValues(t, f(t)) })
	t.Run("NoAliasing", func(t *testing.T) { testNoAliasing(t, f(t)) })
	t.Run("AppendGet", func(t *testing.T) { testAppendGet(t, f(t)) })
	t.Run("ScanNoAliasing", func(t *testing.T) { testScanNoAliasing(t, f(t)) })
	t.Run("ClosedEngine", func(t *testing.T) { testClosed(t, f(t)) })
	t.Run("ConcurrentMixed", func(t *testing.T) { testConcurrent(t, f(t)) })
	t.Run("ModelQuick", func(t *testing.T) { testModelQuick(t, f) })
	t.Run("Scan", func(t *testing.T) { testScan(t, f(t)) })
}

func mustPut(t *testing.T, e store.Engine, k, v string, ver uint64) uint64 {
	t.Helper()
	got, err := e.Put([]byte(k), []byte(v), ver)
	if err != nil {
		t.Fatalf("Put(%q): %v", k, err)
	}
	return got
}

func mustGet(t *testing.T, e store.Engine, k string) (string, uint64, bool) {
	t.Helper()
	v, ver, ok, err := e.AppendGet(nil, []byte(k))
	if err != nil {
		t.Fatalf("AppendGet(%q): %v", k, err)
	}
	return string(v), ver, ok
}

func testPutGet(t *testing.T, e store.Engine) {
	defer e.Close()
	ver := mustPut(t, e, "alpha", "1", 0)
	if ver == 0 {
		t.Fatal("assigned version must be nonzero")
	}
	v, gotVer, ok := mustGet(t, e, "alpha")
	if !ok || v != "1" || gotVer != ver {
		t.Fatalf("got (%q,%d,%v), want (1,%d,true)", v, gotVer, ok, ver)
	}
}

func testGetMissing(t *testing.T, e store.Engine) {
	defer e.Close()
	if _, _, ok := mustGet(t, e, "ghost"); ok {
		t.Fatal("missing key reported present")
	}
}

func testOverwrite(t *testing.T, e store.Engine) {
	defer e.Close()
	v1 := mustPut(t, e, "k", "old", 0)
	v2 := mustPut(t, e, "k", "new", 0)
	if v2 <= v1 {
		t.Fatalf("versions not monotonic: %d then %d", v1, v2)
	}
	v, _, ok := mustGet(t, e, "k")
	if !ok || v != "new" {
		t.Fatalf("got (%q,%v)", v, ok)
	}
	if e.Len() != 1 {
		t.Fatalf("Len=%d, want 1", e.Len())
	}
}

func testDelete(t *testing.T, e store.Engine) {
	defer e.Close()
	mustPut(t, e, "k", "v", 0)
	existed, _, err := e.Delete([]byte("k"), 0)
	if err != nil || !existed {
		t.Fatalf("Delete: existed=%v err=%v", existed, err)
	}
	if _, _, ok := mustGet(t, e, "k"); ok {
		t.Fatal("deleted key still visible")
	}
	if e.Len() != 0 {
		t.Fatalf("Len=%d after delete", e.Len())
	}
}

func testDeleteMissing(t *testing.T, e store.Engine) {
	defer e.Close()
	existed, _, err := e.Delete([]byte("never"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if existed {
		t.Fatal("delete of missing key reported existed")
	}
}

func testVersionLWW(t *testing.T, e store.Engine) {
	defer e.Close()
	mustPut(t, e, "k", "v10", 10)
	winner := mustPut(t, e, "k", "v5", 5) // stale replicated write
	if winner != 10 {
		t.Fatalf("stale write returned version %d, want winning 10", winner)
	}
	v, ver, ok := mustGet(t, e, "k")
	if !ok || v != "v10" || ver != 10 {
		t.Fatalf("stale write clobbered newer: (%q,%d,%v)", v, ver, ok)
	}
	mustPut(t, e, "k", "v12", 12)
	v, ver, _ = mustGet(t, e, "k")
	if v != "v12" || ver != 12 {
		t.Fatalf("newer write lost: (%q,%d)", v, ver)
	}
}

// churnKeys is how many keys the stale-put cases write after a deletion:
// twice the B+-tree's leaf degree (64), so the tombstone's leaf splits, in
// the btree engine and in the LSM memtable alike.
const churnKeys = 2 * 64

// flush pushes an engine's buffered writes into its lower levels where it
// has any (the LSM memtable into its tables); a no-op elsewhere.
func flush(e store.Engine) {
	if f, ok := e.(interface{ Flush() }); ok {
		f.Flush()
	}
}

// churn writes n fresh keys next to k (so they share its leaf).
func churn(t *testing.T, e store.Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustPut(t, e, fmt.Sprintf("k%04d", i), "churn", 0)
	}
}

// testTombstoneBlocksStalePut: a key deleted at v9 stays deleted when a
// stale put at v7 arrives — right away, after the tombstone's leaf split
// and a flush, and when the value it deleted already sits in a flushed
// table (there the acknowledged delete itself must also hold).
func testTombstoneBlocksStalePut(t *testing.T, f Factory) {
	for _, c := range []struct {
		name string
		// before runs between the put at v5 and the delete at v9, after
		// between the delete and the stale put.
		before, after func(t *testing.T, e store.Engine)
	}{
		{name: "alone"},
		{name: "after-split-and-flush", after: func(t *testing.T, e store.Engine) {
			churn(t, e, churnKeys)
			flush(e)
		}},
		{name: "over-a-flushed-value",
			before: func(t *testing.T, e store.Engine) { flush(e) },
			after: func(t *testing.T, e store.Engine) {
				churn(t, e, 199)
				if _, _, ok := mustGet(t, e, "k"); ok {
					t.Fatal("an acknowledged delete came back")
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := f(t)
			defer e.Close()
			mustPut(t, e, "k", "v", 5)
			if c.before != nil {
				c.before(t, e)
			}
			if _, _, err := e.Delete([]byte("k"), 9); err != nil {
				t.Fatal(err)
			}
			if c.after != nil {
				c.after(t, e)
			}
			mustPut(t, e, "k", "zombie", 7) // older than the tombstone
			if _, _, ok := mustGet(t, e, "k"); ok {
				t.Fatal("stale put resurrected a deleted key")
			}
			mustPut(t, e, "k", "fresh", 1<<40)
			v, _, ok := mustGet(t, e, "k")
			if !ok || v != "fresh" {
				t.Fatalf("newer put after tombstone lost: (%q,%v)", v, ok)
			}
		})
	}
}

func testVersionMonotonic(t *testing.T, e store.Engine) {
	defer e.Close()
	mustPut(t, e, "a", "x", 100) // replicated write with a high version
	ver := mustPut(t, e, "b", "y", 0)
	if ver <= 100 {
		t.Fatalf("locally assigned version %d not beyond observed 100", ver)
	}
}

func testLen(t *testing.T, e store.Engine) {
	defer e.Close()
	for i := 0; i < 10; i++ {
		mustPut(t, e, fmt.Sprintf("k%02d", i), "v", 0)
	}
	if e.Len() != 10 {
		t.Fatalf("Len=%d, want 10", e.Len())
	}
	for i := 0; i < 5; i++ {
		if _, _, err := e.Delete([]byte(fmt.Sprintf("k%02d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if e.Len() != 5 {
		t.Fatalf("Len=%d, want 5", e.Len())
	}
	mustPut(t, e, "k00", "back", 0)
	if e.Len() != 6 {
		t.Fatalf("Len=%d after re-put, want 6", e.Len())
	}
}

// testSnapshot: Snapshot(0) lists every live pair and every tombstone;
// Snapshot(mark) exactly the records written after mark.
func testSnapshot(t *testing.T, e store.Engine) {
	defer e.Close()
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v := fmt.Sprintf("val-%03d", i)
		mustPut(t, e, k, v, 0)
		want[k] = v
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("key-%03d", i*5)
		if _, _, err := e.Delete([]byte(k), 0); err != nil {
			t.Fatal(err)
		}
		want[k] = "<tombstone>"
	}
	list := func(since uint64) map[string]string {
		t.Helper()
		got := map[string]string{}
		err := e.Snapshot(since, func(kv store.KV, tombstone bool) error {
			if kv.Version <= since {
				t.Errorf("Snapshot(%d) listed %q at v%d", since, kv.Key, kv.Version)
			}
			got[string(kv.Key)] = string(kv.Value)
			if tombstone {
				got[string(kv.Key)] = "<tombstone>"
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	got := list(0)
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d records, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("snapshot[%q]=%q, want %q", k, got[k], v)
		}
	}

	mark := mustPut(t, e, "key-001", "newer", 0)
	mustPut(t, e, "key-002", "newest", 0)
	if _, _, err := e.Delete([]byte("key-003"), 0); err != nil {
		t.Fatal(err)
	}
	got = list(mark)
	if len(got) != 2 || got["key-002"] != "newest" || got["key-003"] != "<tombstone>" {
		t.Fatalf("Snapshot(%d) = %v, want {key-002:newest key-003:<tombstone>}", mark, got)
	}
}

func testSnapshotError(t *testing.T, e store.Engine) {
	defer e.Close()
	mustPut(t, e, "a", "1", 0)
	mustPut(t, e, "b", "2", 0)
	wantErr := fmt.Errorf("stop")
	calls := 0
	err := e.Snapshot(0, func(store.KV, bool) error {
		calls++
		return wantErr
	})
	if err != wantErr {
		t.Fatalf("Snapshot err=%v, want propagated error", err)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times after error", calls)
	}
}

func testEmptyValue(t *testing.T, e store.Engine) {
	defer e.Close()
	mustPut(t, e, "empty", "", 0)
	v, _, ok := mustGet(t, e, "empty")
	if !ok || v != "" {
		t.Fatalf("empty value lost: (%q,%v)", v, ok)
	}
}

func testLargeValues(t *testing.T, e store.Engine) {
	defer e.Close()
	big := bytes.Repeat([]byte{0xab}, 1<<20)
	if _, err := e.Put([]byte("big"), big, 0); err != nil {
		t.Fatal(err)
	}
	v, _, ok, err := e.AppendGet(nil, []byte("big"))
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("1 MiB value corrupted: ok=%v err=%v len=%d", ok, err, len(v))
	}
}

func testNoAliasing(t *testing.T, e store.Engine) {
	defer e.Close()
	key := []byte("mutable")
	val := []byte("vvvv")
	if _, err := e.Put(key, val, 0); err != nil {
		t.Fatal(err)
	}
	key[0] = 'X'
	val[0] = 'X'
	v, _, ok := mustGet(t, e, "mutable")
	if !ok || v != "vvvv" {
		t.Fatalf("engine aliased caller buffers: (%q,%v)", v, ok)
	}
	got, _, _, _ := e.AppendGet(nil, []byte("mutable"))
	got[0] = 'Y'
	v, _, _ = mustGet(t, e, "mutable")
	if v != "vvvv" {
		t.Fatal("engine returned aliased internal buffer")
	}
}

// testAppendGet pins AppendGet's buffer contract: the value lands after
// dst's prefix, in dst's own array when it has room; a miss or a tombstone
// hands dst back untouched; and the appended bytes are the caller's, so an
// in-place overwrite of the key (ht's same-size path) does not reach them.
func testAppendGet(t *testing.T, e store.Engine) {
	defer e.Close()
	mustPut(t, e, "k", "aaaa", 0)
	mustPut(t, e, "gone", "x", 0)
	if _, _, err := e.Delete([]byte("gone"), 0); err != nil {
		t.Fatal(err)
	}
	dst := append(make([]byte, 0, 64), "prefix-"...)
	got, _, ok, err := e.AppendGet(dst, []byte("k"))
	if err != nil || !ok || string(got) != "prefix-aaaa" {
		t.Fatalf("AppendGet onto a prefix = (%q, %v, %v), want prefix-aaaa", got, ok, err)
	}
	if &got[0] != &dst[:1][0] {
		t.Fatal("AppendGet moved a value that fit dst's capacity")
	}
	short := []byte("p-") // no spare capacity: the engine grows it
	if got, _, ok, err := e.AppendGet(short[:2:2], []byte("k")); err != nil || !ok || string(got) != "p-aaaa" {
		t.Fatalf("AppendGet onto a full slice = (%q, %v, %v), want p-aaaa", got, ok, err)
	}
	for _, k := range []string{"ghost", "gone"} {
		miss, _, ok, err := e.AppendGet(dst, []byte(k))
		if err != nil || ok || len(miss) != len(dst) || cap(miss) != cap(dst) || &miss[0] != &dst[0] ||
			string(miss) != "prefix-" {
			t.Fatalf("AppendGet(%q) = (%q, %v, %v), want dst unchanged", k, miss, ok, err)
		}
	}
	mustPut(t, e, "k", "bbbb", 0)
	if string(got) != "prefix-aaaa" {
		t.Fatalf("an overwrite of the key changed a value already read: %q", got)
	}
	if v, _, ok := mustGet(t, e, "k"); !ok || v != "bbbb" {
		t.Fatalf("re-read after overwrite = (%q, %v), want bbbb", v, ok)
	}
}

// testScanNoAliasing: the pairs Scan returns are the caller's; writing
// into them changes nothing the engine holds.
func testScanNoAliasing(t *testing.T, e store.Engine) {
	defer e.Close()
	mustPut(t, e, "mutable", "vvvv", 0)
	got, err := e.Scan(nil, nil, 0)
	if err == store.ErrUnordered {
		t.Skipf("engine %s does not support scans", e.Name())
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("scan returned %d pairs, want 1", len(got))
	}
	got[0].Key[0] = 'X'
	got[0].Value[0] = 'X'
	if v, _, ok := mustGet(t, e, "mutable"); !ok || v != "vvvv" {
		t.Fatalf("scan returned aliased internal buffers: (%q,%v)", v, ok)
	}
	if again, err := e.Scan(nil, nil, 0); err != nil || len(again) != 1 || string(again[0].Key) != "mutable" {
		t.Fatalf("key changed by writing into a scanned pair: %v %v", scanKeys(again), err)
	}
}

func testClosed(t *testing.T, e store.Engine) {
	mustPut(t, e, "k", "v", 0)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Put([]byte("k"), []byte("v"), 0); err != store.ErrClosed {
		t.Fatalf("Put on closed: %v, want ErrClosed", err)
	}
	if _, _, _, err := e.AppendGet(nil, []byte("k")); err != store.ErrClosed {
		t.Fatalf("AppendGet on closed: %v, want ErrClosed", err)
	}
	if _, _, err := e.Delete([]byte("k"), 0); err != store.ErrClosed {
		t.Fatalf("Delete on closed: %v, want ErrClosed", err)
	}
	if err := e.Snapshot(0, func(store.KV, bool) error { return nil }); err != store.ErrClosed {
		t.Fatalf("Snapshot on closed: %v, want ErrClosed", err)
	}
}

func testConcurrent(t *testing.T, e store.Engine) {
	defer e.Close()
	const workers = 8
	const opsPerWorker = 300
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWorker; i++ {
				k := []byte(fmt.Sprintf("k%03d", rng.Intn(100)))
				switch rng.Intn(10) {
				case 0:
					if _, _, err := e.Delete(k, 0); err != nil {
						errCh <- err
						return
					}
				case 1, 2:
					if _, _, _, err := e.AppendGet(nil, k); err != nil {
						errCh <- err
						return
					}
				default:
					if _, err := e.Put(k, []byte(fmt.Sprintf("w%d-%d", w, i)), 0); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The engine must still be internally consistent: Len equals the
	// number of live snapshot pairs.
	n := 0
	if err := e.Snapshot(0, func(_ store.KV, tombstone bool) error {
		if !tombstone {
			n++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != e.Len() {
		t.Fatalf("Snapshot saw %d pairs but Len=%d", n, e.Len())
	}
}

// op is a randomized model operation for the quick check.
type op struct {
	Kind  uint8
	Key   uint8
	Value uint16
}

func testModelQuick(t *testing.T, f Factory) {
	check := func(ops []op) bool {
		e := f(t)
		defer e.Close()
		model := map[string]string{}
		for _, o := range ops {
			k := []byte(fmt.Sprintf("k%d", o.Key%32))
			switch o.Kind % 3 {
			case 0, 1:
				v := []byte(fmt.Sprintf("v%d", o.Value))
				if _, err := e.Put(k, v, 0); err != nil {
					return false
				}
				model[string(k)] = string(v)
			case 2:
				if _, _, err := e.Delete(k, 0); err != nil {
					return false
				}
				delete(model, string(k))
			}
		}
		if e.Len() != len(model) {
			return false
		}
		for k, want := range model {
			v, _, ok, err := e.AppendGet(nil, []byte(k))
			if err != nil || !ok || string(v) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func testScan(t *testing.T, e store.Engine) {
	defer e.Close()
	keys := []string{"ant", "bee", "cat", "dog", "eel", "fox", "gnu"}
	for i, k := range keys {
		mustPut(t, e, k, fmt.Sprintf("v%d", i), 0)
	}
	if _, _, err := e.Delete([]byte("cat"), 0); err != nil {
		t.Fatal(err)
	}
	got, err := e.Scan([]byte("bee"), []byte("fox"), 0)
	if err == store.ErrUnordered {
		t.Skipf("engine %s does not support scans", e.Name())
	}
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bee", "dog", "eel"}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d pairs, want %d: %v", len(got), len(want), scanKeys(got))
	}
	for i, kv := range got {
		if string(kv.Key) != want[i] {
			t.Fatalf("scan[%d]=%q, want %q", i, kv.Key, want[i])
		}
	}
	// Limit.
	got, err = e.Scan([]byte(""), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0].Key) != "ant" || string(got[1].Key) != "bee" {
		t.Fatalf("limited scan wrong: %v", scanKeys(got))
	}
	// Unbounded end covers everything live, in order.
	got, err = e.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, kv := range got {
		all = append(all, string(kv.Key))
	}
	if !sort.StringsAreSorted(all) || len(all) != 6 {
		t.Fatalf("full scan wrong: %v", all)
	}
}

func scanKeys(kvs []store.KV) []string {
	out := make([]string, len(kvs))
	for i, kv := range kvs {
		out[i] = string(kv.Key)
	}
	return out
}
