package datalet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bespokv/internal/store"
	"bespokv/internal/store/btree"
	"bespokv/internal/store/ht"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

func newServer(t *testing.T, codecName string, newEngine func(string) (store.Engine, error)) (*Server, *Client) {
	t.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	codec, err := wire.LookupCodec(codecName)
	if err != nil {
		t.Fatal(err)
	}
	if newEngine == nil {
		newEngine = func(string) (store.Engine, error) { return ht.New(), nil }
	}
	srv, err := Serve(Config{
		Name:      "test",
		Network:   net,
		Addr:      "",
		Codec:     codec,
		NewEngine: newEngine,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(net, srv.Addr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func do(t *testing.T, c *Client, req wire.Request) wire.Response {
	t.Helper()
	var resp wire.Response
	if err := c.Do(&req, &resp); err != nil {
		t.Fatalf("Do(%s): %v", req.Op, err)
	}
	return resp
}

func TestPutGetDelOverBothCodecs(t *testing.T) {
	for _, codec := range []string{"binary", "text"} {
		codec := codec
		t.Run(codec, func(t *testing.T) {
			_, cli := newServer(t, codec, nil)
			r := do(t, cli, wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v")})
			if r.Status != wire.StatusOK || r.Version == 0 {
				t.Fatalf("put: %+v", r)
			}
			r = do(t, cli, wire.Request{Op: wire.OpGet, Key: []byte("k")})
			if r.Status != wire.StatusOK || string(r.Value) != "v" {
				t.Fatalf("get: %+v", r)
			}
			r = do(t, cli, wire.Request{Op: wire.OpDel, Key: []byte("k")})
			if r.Status != wire.StatusOK {
				t.Fatalf("del: %+v", r)
			}
			r = do(t, cli, wire.Request{Op: wire.OpGet, Key: []byte("k")})
			if r.Status != wire.StatusNotFound {
				t.Fatalf("get after del: %+v", r)
			}
			r = do(t, cli, wire.Request{Op: wire.OpDel, Key: []byte("k")})
			if r.Status != wire.StatusNotFound {
				t.Fatalf("del missing: %+v", r)
			}
		})
	}
}

func TestTables(t *testing.T) {
	_, cli := newServer(t, "binary", nil)
	r := do(t, cli, wire.Request{Op: wire.OpCreateTable, Table: "jobs"})
	if r.Status != wire.StatusOK {
		t.Fatalf("create: %+v", r)
	}
	do(t, cli, wire.Request{Op: wire.OpPut, Table: "jobs", Key: []byte("j1"), Value: []byte("running")})
	do(t, cli, wire.Request{Op: wire.OpPut, Key: []byte("j1"), Value: []byte("default-table")})
	r = do(t, cli, wire.Request{Op: wire.OpGet, Table: "jobs", Key: []byte("j1")})
	if string(r.Value) != "running" {
		t.Fatalf("tables not isolated: %+v", r)
	}
	// Unknown table fails.
	r = do(t, cli, wire.Request{Op: wire.OpPut, Table: "nope", Key: []byte("k"), Value: []byte("v")})
	if r.Status != wire.StatusNotFound {
		t.Fatalf("unknown table: %+v", r)
	}
	// Drop and confirm gone.
	r = do(t, cli, wire.Request{Op: wire.OpDeleteTable, Table: "jobs"})
	if r.Status != wire.StatusOK {
		t.Fatalf("drop: %+v", r)
	}
	r = do(t, cli, wire.Request{Op: wire.OpGet, Table: "jobs", Key: []byte("j1")})
	if r.Status != wire.StatusNotFound {
		t.Fatalf("dropped table still answers: %+v", r)
	}
	// Default table cannot be dropped.
	r = do(t, cli, wire.Request{Op: wire.OpDeleteTable, Table: ""})
	if r.Status == wire.StatusOK {
		t.Fatal("default table must not be droppable")
	}
}

func TestScanOrderedEngine(t *testing.T) {
	_, cli := newServer(t, "binary", func(string) (store.Engine, error) { return btree.New(), nil })
	for i := 0; i < 20; i++ {
		do(t, cli, wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte("v")})
	}
	r := do(t, cli, wire.Request{Op: wire.OpScan, Key: []byte("k05"), EndKey: []byte("k10"), Limit: 3})
	if r.Status != wire.StatusOK || len(r.Pairs) != 3 {
		t.Fatalf("scan: %+v", r)
	}
	if string(r.Pairs[0].Key) != "k05" || string(r.Pairs[2].Key) != "k07" {
		t.Fatalf("scan keys wrong: %v", r.Pairs)
	}
}

// The hash engine used to reject scans; migration needs them on every
// engine, so ht now serves sorted-at-snapshot scans like the ordered ones.
func TestScanHashEngine(t *testing.T) {
	_, cli := newServer(t, "binary", nil) // ht
	for i := 0; i < 20; i++ {
		do(t, cli, wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte("v")})
	}
	r := do(t, cli, wire.Request{Op: wire.OpScan, Key: []byte("k05"), EndKey: []byte("k10"), Limit: 3})
	if r.Status != wire.StatusOK || len(r.Pairs) != 3 {
		t.Fatalf("scan: %+v", r)
	}
	if string(r.Pairs[0].Key) != "k05" || string(r.Pairs[2].Key) != "k07" {
		t.Fatalf("scan keys wrong: %v", r.Pairs)
	}
}

func TestDelRange(t *testing.T) {
	_, cli := newServer(t, "binary", nil) // ht
	const n = 1200                        // several delRange chunks
	for i := 0; i < n; i++ {
		do(t, cli, wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("key-%04d", i)), Value: []byte("v")})
	}
	r := do(t, cli, wire.Request{Op: wire.OpDelRange, Key: []byte("key-0100"), EndKey: []byte("key-0200")})
	if r.Status != wire.StatusOK || r.Version != 100 {
		t.Fatalf("ranged delete: %+v", r)
	}
	for _, probe := range []struct {
		key  string
		want wire.Status
	}{
		{"key-0099", wire.StatusOK},
		{"key-0100", wire.StatusNotFound},
		{"key-0199", wire.StatusNotFound},
		{"key-0200", wire.StatusOK},
	} {
		if got := do(t, cli, wire.Request{Op: wire.OpGet, Key: []byte(probe.key)}); got.Status != probe.want {
			t.Fatalf("after delrange, GET %s = %v, want %v", probe.key, got.Status, probe.want)
		}
	}
	// Unbounded range clears the rest of the table, across chunk seams.
	r = do(t, cli, wire.Request{Op: wire.OpDelRange})
	if r.Status != wire.StatusOK || r.Version != n-100 {
		t.Fatalf("full-range delete: %+v", r)
	}
	if got := do(t, cli, wire.Request{Op: wire.OpScan}); got.Status != wire.StatusOK || len(got.Pairs) != 0 {
		t.Fatalf("table not empty after full delrange: %+v", got)
	}
}

// TestDelRangeKeepsNewerVersion pins the LWW contract of the GC sweep: a
// record whose stored version is higher than the tombstone the sweep would
// have written is still deleted (tombstone reuses the stored version), but
// a write racing in AFTER the scan with a higher version must survive.
// Exercised at the engine layer since the wire path cannot pause mid-sweep.
func TestDelRangeKeepsNewerVersion(t *testing.T) {
	e := ht.New()
	defer e.Close()
	if _, err := e.Put([]byte("a"), []byte("old"), 5); err != nil {
		t.Fatal(err)
	}
	kvs, err := e.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent writer lands a newer version between scan and delete.
	if _, err := e.Put([]byte("a"), []byte("new"), 9); err != nil {
		t.Fatal(err)
	}
	for _, kv := range kvs {
		if _, _, err := e.Delete(kv.Key, kv.Version); err != nil {
			t.Fatal(err)
		}
	}
	if v, _, ok, _ := e.Get([]byte("a")); !ok || string(v) != "new" {
		t.Fatalf("newer write clobbered by versioned range delete: %q ok=%v", v, ok)
	}
}

func TestVersionedWritesLWW(t *testing.T) {
	_, cli := newServer(t, "binary", nil)
	do(t, cli, wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("new"), Version: 10})
	do(t, cli, wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("stale"), Version: 5})
	r := do(t, cli, wire.Request{Op: wire.OpGet, Key: []byte("k")})
	if string(r.Value) != "new" || r.Version != 10 {
		t.Fatalf("LWW violated at datalet: %+v", r)
	}
}

// TestExportStream: an export from 0 lists every pair and every
// tombstone, over several batches of each; one from a version exactly the
// records written after it.
func TestExportStream(t *testing.T) {
	srv, cli := newServer(t, "binary", nil)
	const n = 1000 // several batches
	for i := 0; i < n; i++ {
		do(t, cli, wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("key-%04d", i)), Value: []byte("v")})
	}
	for i := 0; i < n; i += 2 {
		do(t, cli, wire.Request{Op: wire.OpDel, Key: []byte(fmt.Sprintf("key-%04d", i))})
	}
	export := func(since uint64) map[string]bool {
		t.Helper()
		got := map[string]bool{} // key -> tombstone
		if err := cli.Export("", since, func(kv wire.KV, tombstone bool) error {
			got[string(kv.Key)] = tombstone
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	got := export(0)
	if len(got) != n {
		t.Fatalf("export saw %d keys, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if k := fmt.Sprintf("key-%04d", i); got[k] != (i%2 == 0) {
			t.Fatalf("%s: tombstone=%v", k, got[k])
		}
	}
	mark := do(t, cli, wire.Request{Op: wire.OpPut, Key: []byte("key-0001"), Value: []byte("w")}).Version
	do(t, cli, wire.Request{Op: wire.OpPut, Key: []byte("key-0002"), Value: []byte("w")})
	do(t, cli, wire.Request{Op: wire.OpDel, Key: []byte("key-0003")})
	if got := export(mark); len(got) != 2 || got["key-0002"] || !got["key-0003"] {
		t.Fatalf("export since v%d = %v, want {key-0002:live key-0003:tombstone}", mark, got)
	}
	// Connection still usable after export.
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping after export: %v", err)
	}
	_ = srv
}

func TestExportMissingTable(t *testing.T) {
	_, cli := newServer(t, "binary", nil)
	err := cli.Export("ghost", 0, func(wire.KV, bool) error { return nil })
	if err == nil {
		t.Fatal("export of missing table must fail")
	}
}

func TestStats(t *testing.T) {
	_, cli := newServer(t, "binary", nil)
	do(t, cli, wire.Request{Op: wire.OpCreateTable, Table: "aux"})
	do(t, cli, wire.Request{Op: wire.OpPut, Key: []byte("a"), Value: []byte("1")})
	r := do(t, cli, wire.Request{Op: wire.OpStats})
	if r.Status != wire.StatusOK || string(r.Value) != "ht" {
		t.Fatalf("stats: %+v", r)
	}
	if len(r.Pairs) != 2 {
		t.Fatalf("stats tables: %v", r.Pairs)
	}
	if string(r.Pairs[0].Key) != "" || string(r.Pairs[0].Value) != "1" {
		t.Fatalf("default table stats wrong: %v", r.Pairs)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := newServer(t, "binary", nil)
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := Dial(net, srv.Addr(), codec)
			if err != nil {
				errCh <- err
				return
			}
			defer cli.Close()
			var resp wire.Response
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, i))
				if err := cli.Do(&wire.Request{Op: wire.OpPut, Key: k, Value: k}, &resp); err != nil {
					errCh <- err
					return
				}
				if err := cli.Do(&wire.Request{Op: wire.OpGet, Key: k}, &resp); err != nil {
					errCh <- err
					return
				}
				if resp.Status != wire.StatusOK || string(resp.Value) != string(k) {
					errCh <- fmt.Errorf("w%d: bad echo %+v", w, resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestPoolLeastLoaded(t *testing.T) {
	srv, _ := newServer(t, "binary", nil)
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	pool, err := DialPool(net, srv.Addr(), codec, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var resp wire.Response
	if err := pool.Do(&wire.Request{Op: wire.OpNop}, &resp); err != nil {
		t.Fatal(err)
	}
	// With all connections idle, Get must pick an idle one; artificially
	// loading a client must steer Get away from it.
	busy := pool.Get()
	busy.load.Add(1)
	defer busy.load.Add(-1)
	for i := 0; i < 8; i++ {
		if got := pool.Get(); got == busy {
			t.Fatalf("Get returned the loaded client over %d idle ones", len(pool.clients)-1)
		}
	}
	// A failed member has no load; it must not win the pick while a live
	// one exists, however loaded — and is what Get returns when none does.
	for _, c := range pool.clients {
		if c != busy {
			c.fail(errors.New("reset by test"))
		}
	}
	if conns, _ := pool.Stats(); conns != 1 {
		t.Fatalf("Stats counts %d live connections, want 1", conns)
	}
	for i := 0; i < 8; i++ {
		if got := pool.Get(); got != busy {
			t.Fatal("Get returned a failed client over a live one")
		}
	}
	if err := pool.Do(&wire.Request{Op: wire.OpNop}, &resp); err != nil {
		t.Fatalf("pool with one live member: %v", err)
	}
	busy.fail(errors.New("reset by test"))
	if err := pool.Do(&wire.Request{Op: wire.OpNop}, &resp); err == nil {
		t.Fatal("pool with no live member answered")
	}
}

func TestClientAfterServerClose(t *testing.T) {
	srv, cli := newServer(t, "binary", nil)
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	var resp wire.Response
	if err := cli.Do(&wire.Request{Op: wire.OpNop}, &resp); err == nil {
		t.Fatal("request after server close must fail")
	}
	// Sticky error.
	if err := cli.Ping(); err == nil {
		t.Fatal("client must stay failed")
	}
}

func TestUnsupportedOp(t *testing.T) {
	_, cli := newServer(t, "binary", nil)
	r := do(t, cli, wire.Request{Op: wire.OpChainPut})
	if r.Status != wire.StatusErr {
		t.Fatalf("chain op on datalet: %+v", r)
	}
}

// A datalet serves a GET, and a 16-key direct read, from the engine into
// the connection's reply buffer: once that buffer has grown, neither
// allocates. The caller is a raw connection replaying encoded frames, so
// what AllocsPerRun (which counts process-wide) sees is the server's.
func TestServeReadsZeroAllocs(t *testing.T) {
	srv, cli := newServer(t, "binary", nil)
	value := bytes.Repeat([]byte("v"), 32)
	get := wire.Request{ID: 1, Op: wire.OpGet, Key: []byte("key-00")}
	mget := wire.Request{ID: 2, Op: wire.OpDirectGet, Epoch: 3}
	for i := 0; i < 16; i++ {
		key := []byte(fmt.Sprintf("key-%02d", i))
		do(t, cli, wire.Request{Op: wire.OpPut, Key: key, Value: value})
		mget.Pairs = append(mget.Pairs, wire.KV{Key: key})
	}
	mget.Pairs[5].Key = []byte("missing")
	do(t, cli, wire.Request{Op: wire.OpEpochSet, Epoch: 3})

	conn, err := srv.cfg.Network.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	codec := wire.BinaryCodec{}
	frame := func(req *wire.Request) []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := codec.WriteRequest(bw, req); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var resp wire.Response
	call := func(f []byte) {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
		if err := codec.ReadResponse(br, &resp); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		req   *wire.Request
		check func() bool
	}{
		{"get", &get, func() bool { return resp.Status == wire.StatusOK && bytes.Equal(resp.Value, value) }},
		{"direct get x16", &mget, func() bool {
			if resp.Status != wire.StatusOK || len(resp.Pairs) != 16 || len(resp.Statuses) != 16 || len(resp.Value) != 0 {
				return false
			}
			for i, kv := range resp.Pairs {
				want, st := value, wire.StatusOK
				if i == 5 {
					want, st = nil, wire.StatusNotFound
				}
				if resp.Statuses[i] != st || !bytes.Equal(kv.Value, want) {
					return false
				}
			}
			return true
		}},
	} {
		f := frame(tc.req)
		for i := 0; i < 64; i++ { // grow the connection's buffers
			call(f)
		}
		if !tc.check() {
			t.Fatalf("%s: %+v", tc.name, resp)
		}
		if got := testing.AllocsPerRun(2000, func() { call(f) }); got != 0 {
			t.Fatalf("%s: %.1f allocs/op on the datalet, want 0", tc.name, got)
		}
	}
}

// A multi-get frame's values share one reply slab that moves as it grows:
// a frame of 300 keys with values from 0 to 1 KiB, misses among them,
// reads every value back intact, on a connection whose slab is reused
// across frames of different shapes.
func TestMultiGetSlab(t *testing.T) {
	_, cli := newServer(t, "binary", nil)
	var all []wire.KV
	want := map[string][]byte{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%03d", i)
		all = append(all, wire.KV{Key: []byte(key)})
		if i%7 == 3 {
			continue // a miss
		}
		v := bytes.Repeat([]byte{byte(i)}, i*37%1025)
		want[key] = v
		do(t, cli, wire.Request{Op: wire.OpPut, Key: []byte(key), Value: v})
	}
	for round, pairs := range [][]wire.KV{all, all[:5], all[100:], all} {
		r := do(t, cli, wire.Request{Op: wire.OpMGet, Pairs: pairs})
		if r.Status != wire.StatusOK || len(r.Pairs) != len(pairs) || len(r.Statuses) != len(pairs) {
			t.Fatalf("round %d: %s with %d pairs, %d statuses", round, r.Status, len(r.Pairs), len(r.Statuses))
		}
		for i, kv := range pairs {
			v, ok := want[string(kv.Key)]
			st := map[bool]wire.Status{true: wire.StatusOK, false: wire.StatusNotFound}[ok]
			if r.Statuses[i] != st || !bytes.Equal(r.Pairs[i].Value, v) {
				t.Fatalf("round %d: %s = %s, %d bytes; want %s, %d bytes",
					round, kv.Key, r.Statuses[i], len(r.Pairs[i].Value), st, len(v))
			}
		}
	}
}

// TestConnBufferFootprint: a dialled Client and the connection the datalet
// serves it on hold at most 4 × wire.ConnBufSize of bufio buffers between
// them, a reader and a writer at each end (beside the four small bufio
// structs). The buffers are counted from an exact heap profile, by the
// bufio constructor that made them.
func TestConnBufferFootprint(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	srv, cli := newServer(t, "binary", nil)
	do(t, cli, wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v")})
	const conns = 4
	before := bufioInUse()
	for i := 0; i < conns; i++ {
		c, err := Dial(srv.cfg.Network, srv.Addr(), srv.cfg.Codec)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		do(t, c, wire.Request{Op: wire.OpGet, Key: []byte("k")}) // the served end is up
	}
	per := (bufioInUse() - before) / conns
	t.Logf("a connection holds %d B of bufio buffers at its two ends (ConnBufSize %d)", per, wire.ConnBufSize)
	if limit := int64(4*wire.ConnBufSize + 4*128); per <= 0 || per > limit {
		t.Fatalf("a connection holds %d B of bufio buffers at its two ends, want (0, %d]", per, limit)
	}
}

// bufioInUse sums the live heap bytes that bufio constructors allocated,
// as of a fresh garbage collection.
func bufioInUse() int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, _ := runtime.MemProfile(nil, true); ; {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	var sum int64
	for i := range recs {
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "bufio.New") {
				sum += recs[i].InUseBytes()
				break
			}
			if !more {
				break
			}
		}
	}
	return sum
}
