package controlet

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/metrics"
	"bespokv/internal/rpc"
	"bespokv/internal/sharedlog"
	"bespokv/internal/store"
	"bespokv/internal/store/applog"
	"bespokv/internal/store/btree"
	"bespokv/internal/store/ht"
	"bespokv/internal/store/lsm"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

var aaec = topology.Mode{Topology: topology.AA, Consistency: topology.Eventual}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func createTable(t *testing.T, d *datalet.Server, table string) {
	t.Helper()
	net, _ := transport.Lookup("inproc")
	c, err := datalet.Dial(net, d.Addr(), wire.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp wire.Response
	if err := c.Do(&wire.Request{Op: wire.OpCreateTable, Table: table}, &resp); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("create table %q: %v %+v", table, err, resp)
	}
}

// oracleApply is the entry-by-entry apply loop the framed applier replaced
// (PR 14's applyEntry/applyFloor, one datalet round trip per record), kept
// as the reference TestFramedApplyEqualsEntryApply compares against. s is
// any controlet over the datalet the oracle fills; nodeID and stream say
// whose applier it plays.
func oracleApply(t *testing.T, s *Server, nodeID, stream string, entries []sharedlog.Entry) {
	t.Helper()
	var adj uint64
	for _, e := range entries {
		if len(e.Data) > 0 && e.Data[0] == recFloor {
			shard, floor, err := decodeFloorRecord(e.Data)
			if err != nil || (len(shard) > 0 && string(shard) != stream) {
				continue
			}
			if base := aaecVersionBase + e.Offset + 1; floor > base && floor-base > adj {
				adj = floor - base
			}
			continue
		}
		rec, err := decodeLogRecord(e.Data)
		if err != nil {
			continue
		}
		version := aaecVersionBase + adj + e.Offset + 1
		if string(rec.origin) == nodeID && rec.adj == adj {
			continue
		}
		if len(rec.shard) > 0 && string(rec.shard) != stream {
			continue
		}
		op := wire.OpPut
		if rec.del {
			op = wire.OpDel
		}
		w := decodeWrite(&wire.Request{Op: op, Table: string(rec.table), Key: rec.key, Value: rec.value, Version: version})
		if err := s.applyLocal(w, false); err != nil {
			t.Fatalf("oracle: apply entry %d: %v", e.Offset, err)
		}
		w.release()
	}
}

// TestFramedApplyEqualsEntryApply: a stream with puts to two tables,
// deletes, a floor record mid-stream, this node's own records with the
// current and with a stale floor adjustment, another shard's records and a
// corrupt one leaves the same keys, values and versions in the datalet
// whether the applier consumes it in frames or the old loop one record at
// a time.
func TestFramedApplyEqualsEntryApply(t *testing.T) {
	sh := startShard(t, aaec, 1)
	s, d := sh.ctls[0], sh.datalets[0]
	createTable(t, d, "jobs")
	net, _ := transport.Lookup("inproc")
	log, err := sharedlog.DialClient(net, sh.logAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	stream := log.Stream("shard-0")

	type key struct{ table, key string }
	keys := map[key]bool{}
	var pending [][]byte
	rec := func(origin, shard string, adj uint64, del bool, table, k, v string) {
		keys[key{table, k}] = true
		pending = append(pending, encodeLogRecord(origin, shard, adj, del, table, []byte(k), []byte(v)))
	}
	send := func() {
		t.Helper()
		if _, err := stream.Append(pending...); err != nil {
			t.Fatal(err)
		}
		pending = nil
	}
	// A run longer than one frame, then the table flips back and forth.
	for i := 0; i < maxFramePairs+40; i++ {
		rec("peer", "shard-0", 0, false, "", fmt.Sprintf("k%03d", i%200), fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 30; i++ {
		table := ""
		if i%3 != 0 {
			table = "jobs"
		}
		rec("peer", "shard-0", 0, false, table, fmt.Sprintf("k%03d", i), fmt.Sprintf("t%d", i))
		if i%7 == 0 {
			rec("peer", "shard-0", 0, true, table, fmt.Sprintf("k%03d", i+1), "")
		}
	}
	rec("peer", "shard-9", 0, false, "", "other-shard", "never")
	rec("n0", "shard-0", 0, false, "", "own-current", "applied by its writer, not the applier")
	pending = append(pending, []byte{0, 0xff, 0xff}) // corrupt
	send()
	// The floor lifts every later version; what follows is a second Read.
	const lift = 1 << 20
	tail, err := stream.Tail()
	if err != nil {
		t.Fatal(err)
	}
	pending = append(pending,
		encodeFloorRecord("shard-9", aaecVersionBase+tail+1+7*lift), // not ours
		encodeFloorRecord("shard-0", aaecVersionBase+tail+2+lift))
	send()
	eventually(t, "the floor record", func() bool { return s.aaec.adj.Load() != 0 })
	adj := s.aaec.adj.Load()
	if adj != lift {
		t.Fatalf("adj = %d after the floor record, want %d", adj, lift)
	}
	rec("n0", "shard-0", adj, false, "", "own-current-2", "skipped")
	rec("n0", "shard-0", 0, false, "", "own-stale", "acked under the old floor: re-applied at the log's version")
	rec("n0", "shard-0", 0, true, "jobs", "k003", "")
	for i := 0; i < 50; i++ {
		rec("peer", "shard-0", adj, false, "jobs", fmt.Sprintf("k%03d", i), fmt.Sprintf("post-floor-%d", i))
		rec("peer2", "shard-0", 0, i%9 == 0, "", fmt.Sprintf("k%03d", i), fmt.Sprintf("post-floor-%d", i))
	}
	send()
	tail, err = stream.Tail()
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "the applier to reach the tail", func() bool { return s.aaec.applied.Load() == tail })

	entries, next, err := stream.Read(0, 4096, 0)
	if err != nil || next != tail {
		t.Fatalf("read back: next=%d tail=%d err=%v", next, tail, err)
	}
	ref, refD := startControlet(t, topology.Mode{Topology: topology.MS, Consistency: topology.Strong})
	createTable(t, refD, "jobs")
	oracleApply(t, ref, "n0", "shard-0", entries)

	live := 0
	for k := range keys {
		gv, gver, gok, gerr := d.Engine(k.table).AppendGet(nil, []byte(k.key))
		wv, wver, wok, werr := refD.Engine(k.table).AppendGet(nil, []byte(k.key))
		if gerr != nil || werr != nil {
			t.Fatal(gerr, werr)
		}
		if gok != wok || gver != wver || !bytes.Equal(gv, wv) {
			t.Errorf("%s/%s: framed (%q, v%d, %v), entry by entry (%q, v%d, %v)", k.table, k.key, gv, gver, gok, wv, wver, wok)
		}
		if wok {
			live++
		}
	}
	for _, table := range []string{"", "jobs"} {
		if got, want := d.Engine(table).Len(), refD.Engine(table).Len(); got != want {
			t.Errorf("table %q: %d live keys framed, %d entry by entry", table, got, want)
		}
	}
	for _, absent := range []string{"other-shard", "own-current", "own-current-2"} {
		if _, _, ok, _ := d.Engine("").AppendGet(nil, []byte(absent)); ok {
			t.Errorf("%s was applied", absent)
		}
	}
	if _, ver, ok, _ := d.Engine("").AppendGet(nil, []byte("own-stale")); !ok || ver <= aaecVersionBase+lift {
		t.Errorf("own-stale: found=%v version=%d, want it re-applied above the floor", ok, ver)
	}
	if live < 200 {
		t.Fatalf("only %d live keys compared", live)
	}
}

// flakyEngine fails its next `fails` Puts, and every Put of a key that
// starts with refuse (while set); while hold is set, every Snapshot (an
// export) waits for it to close.
type flakyEngine struct {
	store.Engine
	fails   atomic.Int32
	onFail  func()
	refuse  atomic.Pointer[string]
	refused atomic.Int32
	hold    atomic.Pointer[chan struct{}]
	held    atomic.Int32
}

func (e *flakyEngine) Snapshot(since uint64, fn func(store.KV, bool) error) error {
	if h := e.hold.Load(); h != nil {
		e.held.Add(1)
		<-*h
	}
	return e.Engine.Snapshot(since, fn)
}

func (e *flakyEngine) Put(key, value []byte, version uint64) (uint64, error) {
	if p := e.refuse.Load(); p != nil && strings.HasPrefix(string(key), *p) {
		e.refused.Add(1)
		return 0, errors.New("flaky engine: refused")
	}
	if e.fails.Add(-1) >= 0 {
		if e.onFail != nil {
			e.onFail()
		}
		return 0, errors.New("flaky engine: injected failure")
	}
	return e.Engine.Put(key, value, version)
}

// TestFailedFrameIsRetried: a frame the local datalet does not take is
// sent again until it lands, and meanwhile the cursor does not pass it. The
// per-entry applier logged the error and moved on, which lost the
// (acknowledged) write on that replica for good.
func TestFailedFrameIsRetried(t *testing.T) {
	var flaky *flakyEngine
	sh := startShardOpts(t, aaec, 2, shardOpts{engine: func(i int, e store.Engine) store.Engine {
		if i != 1 {
			return e
		}
		flaky = &flakyEngine{Engine: e}
		return flaky
	}})
	n0, n1 := sh.ctls[0], sh.ctls[1]
	put := func(k, v string) uint64 {
		t.Helper()
		var resp wire.Response
		n0.dispatch(&wire.Request{Op: wire.OpPut, Key: []byte(k), Value: []byte(v)}, &resp)
		if resp.Status != wire.StatusOK {
			t.Fatalf("put %s: %+v", k, resp)
		}
		return resp.Version - aaecVersionBase - 1 // its offset
	}
	before := put("before", "1")
	eventually(t, "n1 to apply the first write", func() bool { return n1.aaec.applied.Load() > before })

	var passed atomic.Int32
	var offset atomic.Uint64
	offset.Store(^uint64(0))
	flaky.onFail = func() {
		if n1.aaec.applied.Load() > offset.Load() {
			passed.Add(1)
		}
	}
	retries := ctlAAECApplyRetries.Value()
	flaky.fails.Store(3)
	offset.Store(put("retried", "2"))
	put("after", "3")
	eventually(t, "the failed frame to land", func() bool {
		_, _, retried, _ := sh.datalets[1].Engine("").AppendGet(nil, []byte("retried"))
		_, _, after, _ := sh.datalets[1].Engine("").AppendGet(nil, []byte("after"))
		return retried && after
	})
	if left := flaky.fails.Load(); left > 0 {
		t.Fatalf("%d injected failures never hit", left)
	}
	// Three failed puts are two or three failed frames.
	if got := ctlAAECApplyRetries.Value() - retries; got < 2 || got > 3 {
		t.Fatalf("the retry counter moved by %d for 3 injected failures", got)
	}
	if passed.Load() != 0 {
		t.Fatal("the cursor passed a record whose frame had not landed")
	}
	v, ver, ok, _ := sh.datalets[1].Engine("").AppendGet(nil, []byte("retried"))
	if !ok || string(v) != "2" || ver != aaecVersionBase+offset.Load()+1 {
		t.Fatalf("retried write on n1: (%q, v%d, %v)", v, ver, ok)
	}
	eventually(t, "the cursor to move on", func() bool { return n1.aaec.applied.Load() > offset.Load()+1 })
}

// engineKinds are the four datalet engines, each built small enough that
// a test's writes split the B+-tree leaves and flush and compact the LSM
// tables.
var engineKinds = []struct {
	name string
	new  func(t *testing.T) store.Engine
}{
	{"ht", func(*testing.T) store.Engine { return ht.New() }},
	{"btree", func(*testing.T) store.Engine { return btree.New() }},
	{"lsm", func(t *testing.T) store.Engine {
		e, err := lsm.New(lsm.Options{MemtableBytes: 1 << 12, FanoutLimit: 2, MaxLevels: 2})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
	{"applog", func(t *testing.T) store.Engine {
		e, err := applog.New(applog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
}

// TestAllReplicasBehindCatchUp: when every replica's applier has fallen
// below the log's floor at once, no peer offers a usable cursor — but each
// record of the gap is still in its writer's datalet. The replicas backfill
// from each other and resume at the floor; nothing acknowledged is lost,
// a deletion included: it travels as a tombstone of its writer's datalet,
// on every engine.
func TestAllReplicasBehindCatchUp(t *testing.T) {
	for _, kind := range engineKinds {
		t.Run(kind.name, func(t *testing.T) { testAllReplicasBehindCatchUp(t, kind.new) })
	}
}

func testAllReplicasBehindCatchUp(t *testing.T, newEngine func(*testing.T) store.Engine) {
	engines := make([]*flakyEngine, 2)
	sh := startShardOpts(t, aaec, 2, shardOpts{logSegment: 4, engine: func(i int, _ store.Engine) store.Engine {
		engines[i] = &flakyEngine{Engine: newEngine(t)}
		return engines[i]
	}})
	// Each replica's datalet refuses the other's keys: both appliers stall
	// on their first foreign frame while both keep acknowledging writes.
	theirs := []string{"b-", "a-"}
	var resp wire.Response
	sh.ctls[1].dispatch(&wire.Request{Op: wire.OpPut, Key: []byte("gone"), Value: []byte("v")}, &resp)
	eventually(t, "the doomed key to cross over", func() bool {
		_, _, ok, _ := sh.datalets[0].Engine("").AppendGet(nil, []byte("gone"))
		return ok
	})
	for i, e := range engines {
		e.refuse.Store(&theirs[i])
	}
	before := ctlAAECRebootstraps.Value()
	const each = 100 // the window is 32 records
	for i := 0; i < each; i++ {
		for r, prefix := range []string{"a-", "b-"} {
			var resp wire.Response
			sh.ctls[r].dispatch(&wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("%s%03d", prefix, i)), Value: []byte("v")}, &resp)
			if resp.Status != wire.StatusOK {
				t.Fatalf("put: %+v", resp)
			}
		}
		if i == 0 {
			// Replica 0 is stuck on what it has read; the deletion it has
			// not read will be trimmed before it reads again.
			eventually(t, "replica 0's applier to stall", func() bool { return engines[0].refused.Load() > 0 })
			sh.ctls[1].dispatch(&wire.Request{Op: wire.OpDel, Key: []byte("gone")}, &resp)
			if resp.Status != wire.StatusOK {
				t.Fatalf("del: %+v", resp)
			}
		}
	}
	for _, e := range engines {
		e.refuse.Store(nil)
	}
	eventually(t, "both replicas to hold every key", func() bool {
		return sh.datalets[0].Engine("").Len() == 2*each && sh.datalets[1].Engine("").Len() == 2*each
	})
	if got := ctlAAECRebootstraps.Value() - before; got < 2 {
		t.Fatalf("%d appliers noticed they were below the floor, want both", got)
	}
	eventually(t, "the deletion to reach replica 0", func() bool {
		_, _, ok, _ := sh.datalets[0].Engine("").AppendGet(nil, []byte("gone"))
		return !ok
	})
	for i := 0; i < each; i++ {
		for _, prefix := range []string{"a-", "b-"} {
			k := []byte(fmt.Sprintf("%s%03d", prefix, i))
			_, v0, _, _ := sh.datalets[0].Engine("").AppendGet(nil, k)
			_, v1, _, _ := sh.datalets[1].Engine("").AppendGet(nil, k)
			if v0 != v1 || v0 <= aaecVersionBase {
				t.Fatalf("%s: versions %d and %d", k, v0, v1)
			}
		}
	}
	// Both follow the log again.
	sh.ctls[0].dispatch(&wire.Request{Op: wire.OpPut, Key: []byte("after"), Value: []byte("v")}, &resp)
	eventually(t, "a new write to cross over", func() bool {
		_, _, ok, _ := sh.datalets[1].Engine("").AppendGet(nil, []byte("after"))
		return ok
	})
}

// TestCatchingUpReplicaOffersNoCursor: a replica that took a peer's cursor
// but is still backfilling the gap below it does not offer that cursor to a
// third replica — its datalet does not hold the gap yet, so a replica that
// followed it would skip those records for good — and offers it once the
// backfill is in.
func TestCatchingUpReplicaOffersNoCursor(t *testing.T) {
	engines := make([]*flakyEngine, 3)
	sh := startShardOpts(t, aaec, 3, shardOpts{logSegment: 4, engine: func(i int, e store.Engine) store.Engine {
		engines[i] = &flakyEngine{Engine: e}
		return engines[i]
	}})
	// Replicas 1 and 2 keep up with every write; replica 0 refuses them.
	put := func(i int) {
		t.Helper()
		var resp wire.Response
		sh.ctls[1].dispatch(&wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("x-%03d", i)), Value: []byte("v")}, &resp)
		if resp.Status != wire.StatusOK {
			t.Fatalf("put: %+v", resp)
		}
		offset := resp.Version - aaecVersionBase - 1
		eventually(t, "replicas 1 and 2 to apply a write", func() bool {
			return sh.ctls[1].aaec.applied.Load() > offset && sh.ctls[2].aaec.applied.Load() > offset
		})
	}
	prefix := "x-"
	engines[0].refuse.Store(&prefix)
	put(0)
	eventually(t, "replica 0's applier to stall", func() bool { return engines[0].refused.Load() > 0 })
	const n = 100 // the window is 32 records
	for i := 1; i < n; i++ {
		put(i)
	}
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release)
	for _, e := range engines[1:] {
		e.hold.Store(&hold)
	}
	engines[0].refuse.Store(nil)
	eventually(t, "replica 0 to follow a peer and start its backfill", func() bool {
		return engines[1].held.Load()+engines[2].held.Load() > 0
	})
	if cur, err := sh.ctls[0].handleLogCursor(struct{}{}); err != nil || cur.Positioned || cur.Applied < n {
		t.Fatalf("replica 0's cursor while its backfill is in flight: %+v (%v), want one at >= %d not offered", cur, err, n)
	}
	release()
	eventually(t, "replica 0 to offer its cursor", func() bool {
		cur, err := sh.ctls[0].handleLogCursor(struct{}{})
		return err == nil && cur.Positioned
	})
	eventually(t, "replica 0 to hold every key", func() bool { return sh.datalets[0].Engine("").Len() == n })
}

// fakeLog is a shared-log server whose Append the test controls: it parks
// frames on request, fails the ones it is told to, and remembers what each
// frame carried.
type fakeLog struct {
	addr string

	mu     sync.Mutex
	frames []string // "stream:a,b,c" per Append, in arrival order
	failAt int      // 1-based index of the frame to fail; 0 = none
	next   uint64
	gate   chan struct{} // non-nil: every Append waits for a token
}

func startFakeLog(t *testing.T) *fakeLog {
	t.Helper()
	net, _ := transport.Lookup("inproc")
	f := &fakeLog{}
	srv := rpc.NewServer()
	rpc.HandleFunc(srv, "Append", func(args sharedlog.AppendArgs) (sharedlog.AppendReply, error) {
		f.mu.Lock()
		gate := f.gate
		var recs []string
		for _, e := range args.Entries {
			recs = append(recs, string(e))
		}
		f.frames = append(f.frames, args.Stream+":"+strings.Join(recs, ","))
		fail := len(f.frames) == f.failAt
		f.mu.Unlock()
		if gate != nil {
			<-gate
		}
		if fail {
			return sharedlog.AppendReply{}, errors.New("fake log: injected append failure")
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		first := f.next
		f.next += uint64(len(args.Entries))
		return sharedlog.AppendReply{First: first, Next: f.next}, nil
	})
	addr, err := srv.Serve(net, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	f.addr = addr
	return f
}

func (f *fakeLog) seen() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.frames...)
}

// newCombiner is a logApplier with only its append side wired.
func newCombiner(t testing.TB, addr string) *logApplier {
	t.Helper()
	net, _ := transport.Lookup("inproc")
	c, err := sharedlog.DialClient(net, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &logApplier{client: c, stopCh: make(chan struct{})}
}

func (a *logApplier) queued() int {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	return len(a.queue)
}

type appendResult struct {
	offset uint64
	err    error
}

// appendAsync starts one append and waits until it sits in the queue, so
// tests decide the arrival order.
func appendAsync(t *testing.T, a *logApplier, stream, rec string) <-chan appendResult {
	t.Helper()
	before := a.queued()
	done := make(chan appendResult, 1)
	go func() {
		off, err := a.append(stream, []byte(rec))
		done <- appendResult{off, err}
	}()
	eventually(t, "the appender to queue", func() bool { return a.queued() > before })
	return done
}

// TestCombinerConcurrentAppenders: 32 concurrent appenders get distinct,
// contiguous offsets, in fewer frames than records.
func TestCombinerConcurrentAppenders(t *testing.T) {
	sh := startShard(t, aaec, 1)
	a := newCombiner(t, sh.logAddr)
	const appenders, each = 32, 50
	offsets := make([][]uint64, appenders)
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				off, err := a.append("combiner", []byte(fmt.Sprintf("%d-%d", g, i)))
				if err != nil {
					t.Error(err)
					return
				}
				offsets[g] = append(offsets[g], off)
			}
		}(g)
	}
	wg.Wait()
	var all []uint64
	for g := range offsets {
		if !sort.SliceIsSorted(offsets[g], func(i, j int) bool { return offsets[g][i] < offsets[g][j] }) {
			t.Fatalf("appender %d saw its offsets out of order: %v", g, offsets[g])
		}
		all = append(all, offsets[g]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) != appenders*each {
		t.Fatalf("%d offsets for %d appends", len(all), appenders*each)
	}
	for i, off := range all {
		if off != uint64(i) {
			t.Fatalf("offsets not contiguous: position %d holds %d", i, off)
		}
	}
	// Each record is where its offset says.
	entries, _, err := a.client.Stream("combiner").Read(0, 4096, 0)
	if err != nil || len(entries) != len(all) {
		t.Fatalf("read back %d entries: %v", len(entries), err)
	}
	for g := range offsets {
		for i, off := range offsets[g] {
			if want := fmt.Sprintf("%d-%d", g, i); string(entries[off].Data) != want {
				t.Fatalf("offset %d holds %q, want %q", off, entries[off].Data, want)
			}
		}
	}
}

// TestCombinerFrames pins what one frame is: whatever queued behind the
// leader for the same stream, in arrival order. A failed Append fails
// exactly the records of its frame; a stream change ends the frame, and
// neither merges what came before it with what came after nor lets the
// later records overtake.
func TestCombinerFrames(t *testing.T) {
	f := startFakeLog(t)
	a := newCombiner(t, f.addr)
	f.gate = make(chan struct{})
	f.failAt = 2
	release := func() { f.gate <- struct{}{} }

	first := appendAsync(t, a, "x", "a") // leads frame 1, parked in the log
	eventually(t, "frame 1 to reach the log", func() bool { return len(f.seen()) == 1 })
	b := appendAsync(t, a, "x", "b")
	c := appendAsync(t, a, "x", "c")
	d := appendAsync(t, a, "x", "d")
	e := appendAsync(t, a, "y", "e") // another stream: ends frame 2
	g := appendAsync(t, a, "x", "g")
	h := appendAsync(t, a, "x", "h")
	release()
	if r := <-first; r.err != nil || r.offset != 0 {
		t.Fatalf("a: %+v", r)
	}
	release() // frame 2 = b,c,d fails
	for name, ch := range map[string]<-chan appendResult{"b": b, "c": c, "d": d} {
		if r := <-ch; r.err == nil || !strings.Contains(r.err.Error(), "injected append failure") {
			t.Fatalf("%s: %+v, want the frame's failure", name, r)
		}
	}
	release() // frame 3 = e alone
	if r := <-e; r.err != nil || r.offset != 1 {
		t.Fatalf("e: %+v", r)
	}
	release() // frame 4 = g,h
	if r := <-g; r.err != nil || r.offset != 2 {
		t.Fatalf("g: %+v", r)
	}
	if r := <-h; r.err != nil || r.offset != 3 {
		t.Fatalf("h: %+v", r)
	}
	want := []string{"x:a", "x:b,c,d", "y:e", "x:g,h"}
	if got := f.seen(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("frames %v, want %v", got, want)
	}
}

// TestCombinerStopReleasesWaiters: stop fails the frame in flight and
// everything queued behind it, and later appends at once.
func TestCombinerStopReleasesWaiters(t *testing.T) {
	f := startFakeLog(t)
	a := newCombiner(t, f.addr)
	f.gate = make(chan struct{})
	t.Cleanup(func() { close(f.gate) })
	waiters := []<-chan appendResult{appendAsync(t, a, "x", "a")}
	eventually(t, "the frame to reach the log", func() bool { return len(f.seen()) == 1 })
	for _, rec := range []string{"b", "c"} {
		waiters = append(waiters, appendAsync(t, a, "x", rec))
	}
	waiters = append(waiters, appendAsync(t, a, "y", "d"))
	a.stop()
	for i, ch := range waiters {
		select {
		case r := <-ch:
			if r.err == nil {
				t.Fatalf("waiter %d got offset %d from a stopped applier", i, r.offset)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d still parked after stop", i)
		}
	}
	if _, err := a.append("x", []byte("late")); !errors.Is(err, errStopped) {
		t.Fatalf("append after stop: %v", err)
	}
}

// TestLoneAppendAllocs: an appender with nobody beside it sends its own
// frame on its own goroutine — no batcher, no channel, no per-call slice:
// the combiner adds nothing to what sharedlog.Client.Append allocates (2)
// and the in-process log server does for the frame (5). Through the
// batcher goroutine the same call cost 10.
func TestLoneAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under -race")
	}
	sh := startShard(t, aaec, 1)
	a := newCombiner(t, sh.logAddr)
	rec := make([]byte, 64)
	call := func() {
		if _, err := a.append("allocs", rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call() // fill the pools
	}
	const limit = 7
	if got := testing.AllocsPerRun(2000, call); got > limit {
		t.Fatalf("lone append: %.1f allocs, limit %d", got, limit)
	}
}

// BenchmarkLogAppend is the append layer: records through the combiner to
// a real log server, from one appender and from sixteen (per processor);
// recs/frame is how deep the combiner batched.
func BenchmarkLogAppend(b *testing.B) {
	frames := metrics.Default.Counter("bespokv_sharedlog_appends_total")
	for _, appenders := range []int{1, 16} {
		b.Run(fmt.Sprintf("appenders=%d", appenders), func(b *testing.B) {
			sh := startShard(b, aaec, 1)
			a := newCombiner(b, sh.logAddr)
			rec := encodeLogRecord("n9", "bench", 0, false, "", []byte("user0000000042"), make([]byte, 32))
			b.ReportAllocs()
			b.SetParallelism(appenders) // × GOMAXPROCS goroutines
			before := frames.Value()
			defer func() { b.ReportMetric(float64(b.N)/float64(frames.Value()-before), "recs/frame") }()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := a.append("bench", rec); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkLogApply is the apply layer: entries/s from a pre-filled stream
// into a real datalet through the applier's frames.
func BenchmarkLogApply(b *testing.B) {
	sh := startShard(b, aaec, 1)
	a := sh.ctls[0].aaec
	value := make([]byte, 32)
	entries := make([]sharedlog.Entry, 4096)
	for i := range entries {
		entries[i] = sharedlog.Entry{
			Offset: uint64(i),
			Data:   encodeLogRecord("peer", "shard-0", 0, false, "", []byte(fmt.Sprintf("user%010d", i)), value),
		}
	}
	pause := func(time.Duration) bool { return false }
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(entries) {
		batch := entries[:min(len(entries), b.N-done)]
		for i := range batch {
			batch[i].Offset = uint64(done + i)
		}
		// The applier itself idles on its (empty) stream; the benchmark
		// drives its frames directly.
		if !a.applyEntries("shard-0", batch, pause) {
			b.Fatal("apply failed")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

// An N-pair MultiPut at an AA+EC controlet is one appender: one Append
// carries its N records, each pair versioned by its own offset.
func TestAAECBatchOneAppend(t *testing.T) {
	sh := startShard(t, aaec, 1)
	appends := metrics.Default.Counter("bespokv_sharedlog_appends_total")
	entries := metrics.Default.Counter("bespokv_sharedlog_entries_total")
	const n = 64
	req := mputOf("b", n)
	a0, e0 := appends.Value(), entries.Value()
	var resp wire.Response
	sh.ctls[0].dispatch(req, &resp)
	if resp.Status != wire.StatusOK || len(resp.Statuses) != n {
		t.Fatalf("mput: %s %s, %d statuses", resp.Status, resp.Err, len(resp.Statuses))
	}
	if a, e := appends.Value()-a0, entries.Value()-e0; a != 1 || e != n {
		t.Fatalf("%d Appends with %d records for one %d-pair batch, want 1 with %d", a, e, n, n)
	}
	for i := range req.Pairs {
		if st, ver := resp.Statuses[i], resp.Pairs[i].Version; st != wire.StatusOK || ver != resp.Pairs[0].Version+uint64(i) {
			t.Fatalf("pair %d acked %s at version %d, want %d: its own offset", i, st, ver, resp.Pairs[0].Version+uint64(i))
		}
		v, ver, ok, err := sh.datalets[0].Engine("").AppendGet(nil, req.Pairs[i].Key)
		if err != nil || !ok || !bytes.Equal(v, req.Pairs[i].Value) || ver != resp.Pairs[i].Version {
			t.Fatalf("pair %d applied as %q at %d (found %v, %v)", i, v, ver, ok, err)
		}
	}
}

// TestCombinerCountsRecords: the frame cap counts records, not appenders:
// batches queued behind a leader join its frame while their records fit,
// and one larger than the cap goes alone.
func TestCombinerCountsRecords(t *testing.T) {
	f := startFakeLog(t)
	a := newCombiner(t, f.addr)
	f.gate = make(chan struct{})
	release := func() { f.gate <- struct{}{} }
	batch := func(prefix string, n int) <-chan appendResult {
		recs := make([][]byte, n)
		for i := range recs {
			recs[i] = []byte(fmt.Sprintf("%s%d", prefix, i))
		}
		before := a.queued()
		done := make(chan appendResult, 1)
		go func() {
			off, err := a.append("x", recs...)
			done <- appendResult{off, err}
		}()
		eventually(t, "the batch to queue", func() bool { return a.queued() > before })
		return done
	}
	first := appendAsync(t, a, "x", "a") // leads frame 1, parked in the log
	eventually(t, "frame 1 to reach the log", func() bool { return len(f.seen()) == 1 })
	b := batch("b", 100)
	c := batch("c", 28)  // 100 + 28 = the cap: joins b's frame
	d := batch("d", 1)   // one more: the next frame
	e := batch("e", 200) // alone, above the cap
	for _, want := range []struct {
		ch     <-chan appendResult
		offset uint64
	}{{first, 0}, {b, 1}, {c, 101}, {d, 129}, {e, 130}} {
		if want.ch != c { // c is answered with b's frame
			release()
		}
		if r := <-want.ch; r.err != nil || r.offset != want.offset {
			t.Fatalf("append answered %+v, want offset %d", r, want.offset)
		}
	}
	var sizes []int
	for _, fr := range f.seen() {
		sizes = append(sizes, strings.Count(fr, ",")+1)
	}
	if fmt.Sprint(sizes) != "[1 128 1 200]" {
		t.Fatalf("frames of %v records, want [1 128 1 200]", sizes)
	}
}

// An empty MultiPut at an AA+EC controlet is acked with no statuses and
// never reaches the log, while other writes' appends are in flight; the
// combiner refuses an append of no records, which would otherwise ride in
// another appender's frame with no offset of its own.
func TestAAECBatchEmpty(t *testing.T) {
	s := startShard(t, aaec, 1).ctls[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var resp wire.Response
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp.Reset()
				s.dispatch(&wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("k%d-%d", g, i)), Value: []byte("v")}, &resp)
				if resp.Status != wire.StatusOK {
					t.Errorf("put: %s %s", resp.Status, resp.Err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		var resp wire.Response
		s.dispatch(&wire.Request{Op: wire.OpMPut}, &resp)
		if resp.Status != wire.StatusOK || len(resp.Statuses) != 0 || len(resp.Pairs) != 0 {
			t.Fatalf("empty mput: %s %s, %d statuses, %d pairs", resp.Status, resp.Err, len(resp.Statuses), len(resp.Pairs))
		}
	}

	f := startFakeLog(t)
	a := newCombiner(t, f.addr)
	f.gate = make(chan struct{})
	first := appendAsync(t, a, "x", "a") // leads a frame, parked in the log
	eventually(t, "the frame to reach the log", func() bool { return len(f.seen()) == 1 })
	if _, err := a.append("x"); err == nil || a.queued() != 1 {
		t.Fatalf("append of no records: %v, %d queued", err, a.queued())
	}
	f.gate <- struct{}{}
	if r := <-first; r.err != nil || r.offset != 0 {
		t.Fatalf("the parked append answered %+v", r)
	}
}

// A MultiPut whose records together outgrow an rpc frame (16 MB) is
// sequenced in Appends of at most maxFrameBytes, each pair versioned by
// its own record's offset, and reaches the other replica through Reads
// that each stay under the frame limit too.
func TestAAECBatchAboveFrameLimit(t *testing.T) {
	sh := startShard(t, aaec, 2)
	appends := metrics.Default.Counter("bespokv_sharedlog_appends_total")
	const pairs, size = 5, 7 << 19 // 5 × 3.5 MB
	req := &wire.Request{Op: wire.OpMPut}
	for i := 0; i < pairs; i++ {
		req.Pairs = append(req.Pairs, wire.KV{Key: []byte(fmt.Sprintf("big%d", i)), Value: bytes.Repeat([]byte{byte('a' + i)}, size)})
	}
	a0 := appends.Value()
	var resp wire.Response
	sh.ctls[0].dispatch(req, &resp)
	if resp.Status != wire.StatusOK || len(resp.Statuses) != pairs {
		t.Fatalf("mput of %d MB: %s %s, %d statuses", pairs*size>>20, resp.Status, resp.Err, len(resp.Statuses))
	}
	if a := appends.Value() - a0; a != pairs {
		t.Fatalf("%d Appends, want %d: one per record of %d bytes", a, pairs, size)
	}
	for i := range req.Pairs {
		if st, ver := resp.Statuses[i], resp.Pairs[i].Version; st != wire.StatusOK || (i > 0 && ver <= resp.Pairs[i-1].Version) {
			t.Fatalf("pair %d acked %s at version %d", i, st, ver)
		}
	}
	for r, d := range sh.datalets {
		for i := range req.Pairs {
			eventually(t, fmt.Sprintf("pair %d on replica %d", i, r), func() bool {
				v, ver, ok, err := d.Engine("").AppendGet(nil, req.Pairs[i].Key)
				return err == nil && ok && ver == resp.Pairs[i].Version && bytes.Equal(v, req.Pairs[i].Value)
			})
		}
	}
}
