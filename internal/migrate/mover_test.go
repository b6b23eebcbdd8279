package migrate

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// rec is one stored value in the fake datalet.
type rec struct {
	value   []byte
	version uint64
}

// fakeDatalet is an in-memory LWW store speaking the subset of the wire
// protocol the mover drives: Put/Del with explicit versions, sorted Scan,
// Stats (table listing), CreateTable and DelRange.
type fakeDatalet struct {
	mu       sync.Mutex
	tables   map[string]map[string]rec
	failPuts atomic.Int32 // fail this many Puts with StatusErr first
	failDels atomic.Int32 // fail this many Dels with StatusErr first
	puts     atomic.Int64
}

func newFakeDatalet(tables ...string) *fakeDatalet {
	f := &fakeDatalet{tables: map[string]map[string]rec{"": {}}}
	for _, t := range tables {
		f.tables[t] = map[string]rec{}
	}
	return f
}

func (f *fakeDatalet) put(table, key, value string, version uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tables[table][key] = rec{value: []byte(value), version: version}
}

func (f *fakeDatalet) get(table, key string) (rec, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.tables[table][key]
	return r, ok
}

func (f *fakeDatalet) count(table string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.tables[table])
}

func (f *fakeDatalet) Do(req *wire.Request, resp *wire.Response) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	resp.Status = wire.StatusOK
	switch req.Op {
	case wire.OpStats:
		names := make([]string, 0, len(f.tables))
		for name := range f.tables {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			resp.Pairs = append(resp.Pairs, wire.KV{Key: []byte(name)})
		}
	case wire.OpCreateTable:
		if _, ok := f.tables[req.Table]; !ok {
			f.tables[req.Table] = map[string]rec{}
		}
	case wire.OpPut:
		f.puts.Add(1)
		if f.failPuts.Load() > 0 {
			f.failPuts.Add(-1)
			resp.Status = wire.StatusErr
			resp.Err = "injected put failure"
			return nil
		}
		t, ok := f.tables[req.Table]
		if !ok {
			resp.Status = wire.StatusNotFound
			resp.Err = "no such table"
			return nil
		}
		v := req.Version
		if v == 0 {
			v = 1
		}
		if cur, ok := t[string(req.Key)]; !ok || v >= cur.version {
			t[string(req.Key)] = rec{value: append([]byte(nil), req.Value...), version: v}
		}
		resp.Version = v
	case wire.OpDel:
		if f.failDels.Load() > 0 {
			f.failDels.Add(-1)
			resp.Status = wire.StatusErr
			resp.Err = "injected delete failure"
			return nil
		}
		t, ok := f.tables[req.Table]
		if !ok {
			resp.Status = wire.StatusNotFound
			resp.Err = "no such table"
			return nil
		}
		if cur, ok := t[string(req.Key)]; ok && (req.Version == 0 || req.Version >= cur.version) {
			delete(t, string(req.Key))
		}
	case wire.OpScan:
		t, ok := f.tables[req.Table]
		if !ok {
			resp.Status = wire.StatusNotFound
			resp.Err = "no such table"
			return nil
		}
		keys := make([]string, 0, len(t))
		for k := range t {
			if len(req.Key) > 0 && k < string(req.Key) {
				continue
			}
			if len(req.EndKey) > 0 && k >= string(req.EndKey) {
				continue
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if req.Limit > 0 && len(keys) > int(req.Limit) {
			keys = keys[:req.Limit]
		}
		for _, k := range keys {
			r := t[k]
			resp.Pairs = append(resp.Pairs, wire.KV{Key: []byte(k), Value: r.value, Version: r.version})
		}
	case wire.OpDelRange:
		t, ok := f.tables[req.Table]
		if !ok {
			resp.Status = wire.StatusNotFound
			resp.Err = "no such table"
			return nil
		}
		var n uint64
		for k := range t {
			if len(req.Key) > 0 && k < string(req.Key) {
				continue
			}
			if len(req.EndKey) > 0 && k >= string(req.EndKey) {
				continue
			}
			delete(t, k)
			n++
		}
		resp.Version = n
	default:
		resp.Status = wire.StatusErr
		resp.Err = fmt.Sprintf("fake: unsupported op %s", req.Op)
	}
	return nil
}

// Start serves the call at once; the zero Pending waits as a success, and
// Do never fails a call.
func (f *fakeDatalet) Start(req *wire.Request, resp *wire.Response) datalet.Pending {
	_ = f.Do(req, resp)
	return datalet.Pending{}
}

// testTopo builds an n-shard hash map s0..s{n-1}, one replica each.
func testTopo(n int) *topology.Map {
	m := &topology.Map{
		Epoch:       3,
		Mode:        topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Partitioner: topology.HashPartitioner,
	}
	for i := 0; i < n; i++ {
		m.Shards = append(m.Shards, topology.Shard{
			ID:       fmt.Sprintf("s%d", i),
			Replicas: []topology.Node{{ID: fmt.Sprintf("n%d", i), DataletAddr: fmt.Sprintf("d%d", i)}},
		})
	}
	return m
}

// testMover wires a mover whose source is shard "s0" of target, with one
// fake datalet per destination shard (keyed by node ID).
func testMover(t *testing.T, target *topology.Map, src *fakeDatalet) (*Mover, map[string]*fakeDatalet) {
	t.Helper()
	dests := map[string]*fakeDatalet{}
	for _, s := range target.Shards {
		for _, n := range s.Replicas {
			if _, ok := dests[n.ID]; !ok {
				dests[n.ID] = newFakeDatalet()
			}
		}
	}
	m, err := New(Config{
		Spec:  Spec{ID: "mig-1", SourceShard: "s0", Target: target},
		Local: src,
		Dest: func(n topology.Node) (Backend, error) {
			d, ok := dests[n.ID]
			if !ok {
				return nil, fmt.Errorf("no fake for node %s", n.ID)
			}
			return d, nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m, dests
}

func TestMoverJoinFlow(t *testing.T) {
	// Old map: s0 alone owns everything. Target adds s1: the keys whose
	// ring owner becomes s1 must move, the rest must stay untouched.
	target := testTopo(2)
	src := newFakeDatalet("aux")
	const n = 800
	for i := 0; i < n; i++ {
		src.put("", fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%d", i), uint64(i+1))
	}
	src.put("aux", "a1", "x", 7)
	src.put("aux", "a2", "y", 9)

	m, dests := testMover(t, target, src)
	ring := topology.BuildRing(target)
	moving := map[string]bool{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		moving[k] = target.ShardFor([]byte(k), ring) != 0
	}

	if got := Phase(m.phase.Load()); got != PhaseDualWrite {
		t.Fatalf("phase after New = %v", got)
	}

	// A dual-write to a moving key lands at the destination; a staying key
	// is filtered out before the queue.
	var movingKey, stayingKey string
	for k, mv := range moving {
		if mv && movingKey == "" {
			movingKey = k
		}
		if !mv && stayingKey == "" {
			stayingKey = k
		}
	}
	if movingKey == "" || stayingKey == "" {
		t.Fatal("ring diff degenerate: need both moving and staying keys")
	}
	m.Mirror(false, "", []byte(movingKey), []byte("mirrored"), 1<<40)
	m.Mirror(false, "", []byte(stayingKey), []byte("should-not-move"), 1<<40)
	m.DrainQueue()
	if r, ok := dests["n1"].get("", movingKey); !ok || string(r.value) != "mirrored" {
		t.Fatalf("dual-write missing at dest: %+v ok=%v", r, ok)
	}
	if _, ok := dests["n1"].get("", stayingKey); ok {
		t.Fatal("staying key leaked to destination")
	}

	keys, bytesMoved, err := m.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if keys == 0 || bytesMoved == 0 {
		t.Fatalf("stream moved keys=%d bytes=%d", keys, bytesMoved)
	}
	// Every moving key must be at the destination with its source version
	// (except the one the dual-write already bumped past).
	for k, mv := range moving {
		r, ok := dests["n1"].get("", k)
		if mv && !ok {
			t.Fatalf("moving key %q missing at destination", k)
		}
		if !mv && ok {
			t.Fatalf("staying key %q copied to destination", k)
		}
		if mv && k != movingKey {
			want, _ := src.get("", k)
			if r.version != want.version || !bytes.Equal(r.value, want.value) {
				t.Fatalf("key %q at dest = (%q,%d), want (%q,%d)", k, r.value, r.version, want.value, want.version)
			}
		}
	}
	// The dual-written value (higher version) must have survived the
	// snapshot's older copy arriving afterwards.
	if r, _ := dests["n1"].get("", movingKey); string(r.value) != "mirrored" {
		t.Fatalf("snapshot clobbered newer dual-write: %q", r.value)
	}
	// Secondary table contents moved too (table auto-created at dest).
	for _, k := range []string{"a1", "a2"} {
		if mv := target.ShardFor([]byte(k), ring) != 0; mv {
			if _, ok := dests["n1"].get("aux", k); !ok {
				t.Fatalf("aux key %q missing at destination", k)
			}
		}
	}

	m.BeginCutover()
	if !m.Blocks([]byte(movingKey)) {
		t.Fatal("cutover barrier must block writes to moving keys")
	}
	if m.Blocks([]byte(stayingKey)) {
		t.Fatal("cutover barrier must not block staying keys")
	}
	m.DrainQueue()

	gced, err := m.GC()
	if err != nil {
		t.Fatal(err)
	}
	if gced == 0 {
		t.Fatal("GC deleted nothing")
	}
	for k, mv := range moving {
		_, ok := src.get("", k)
		if mv && ok {
			t.Fatalf("moved key %q survived GC at source", k)
		}
		if !mv && !ok {
			t.Fatalf("staying key %q deleted by GC", k)
		}
	}

	st := m.Status()
	if st.Phase != "done" || st.KeysMoved != keys || st.KeysGCed != gced || st.DualWrites != 1 || st.QueueDepth != 0 {
		t.Fatalf("status = %+v", st)
	}
}

func TestMoverDrainFlow(t *testing.T) {
	// Target drops s0 entirely: every key moves, and GC is a ranged delete
	// of the whole keyspace.
	full := testTopo(3)
	target := full.Clone()
	target.Shards = target.Shards[1:] // s1, s2 survive
	src := newFakeDatalet()
	const n = 300
	for i := 0; i < n; i++ {
		src.put("", fmt.Sprintf("key-%04d", i), "v", uint64(i+1))
	}
	m, dests := testMover(t, target, src)
	if !m.Moves([]byte("anything")) {
		t.Fatal("drained shard must move every key")
	}
	keys, _, err := m.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if keys != n {
		t.Fatalf("moved %d keys, want all %d", keys, n)
	}
	if got := dests["n1"].count("") + dests["n2"].count(""); got != n {
		t.Fatalf("destinations hold %d keys, want %d", got, n)
	}
	ring := topology.BuildRing(target)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		owner := target.Shards[target.ShardFor([]byte(k), ring)].Replicas[0].ID
		if _, ok := dests[owner].get("", k); !ok {
			t.Fatalf("key %q missing at its owner %s", k, owner)
		}
	}
	m.BeginCutover()
	m.DrainQueue()
	gced, err := m.GC()
	if err != nil {
		t.Fatal(err)
	}
	if gced != n || src.count("") != 0 {
		t.Fatalf("GC removed %d, source still holds %d", gced, src.count(""))
	}
}

func TestMoverCatchupRetriesUntilDelivered(t *testing.T) {
	target := testTopo(2)
	src := newFakeDatalet()
	m, dests := testMover(t, target, src)
	// Find a key owned by s1 and make the destination fail a few times.
	ring := topology.BuildRing(target)
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if target.ShardFor([]byte(k), ring) == 1 {
			key = k
			break
		}
	}
	dests["n1"].failPuts.Store(3)
	m.Mirror(false, "", []byte(key), []byte("persistent"), 42)
	done := make(chan struct{})
	go func() { m.DrainQueue(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("catch-up never delivered past transient failures")
	}
	if r, ok := dests["n1"].get("", key); !ok || string(r.value) != "persistent" {
		t.Fatalf("record lost after retries: %+v ok=%v", r, ok)
	}
	if p := dests["n1"].puts.Load(); p != 4 {
		t.Fatalf("destination saw %d puts, want 3 failures + 1 success", p)
	}
}

// fillSource puts n keys into the source's default table.
func fillSource(src *fakeDatalet, n int) {
	for i := 0; i < n; i++ {
		src.put("", fmt.Sprintf("key-%04d", i), "v", uint64(i+1))
	}
}

func TestMoverStreamFailsOnRefusedPut(t *testing.T) {
	src := newFakeDatalet()
	fillSource(src, 200)
	m, dests := testMover(t, testTopo(2), src)
	dests["n1"].failPuts.Store(1 << 20)
	_, _, err := m.Stream()
	if err == nil || !strings.Contains(err.Error(), "injected put failure") {
		t.Fatalf("Stream = %v, want the destination's refusal", err)
	}
	if st := m.Status(); st.Phase != "failed" || st.Err != err.Error() {
		t.Fatalf("status = %+v, want phase failed with %q", st, err)
	}
}

func TestMoverGCFailsOnRefusedDelete(t *testing.T) {
	src := newFakeDatalet()
	fillSource(src, 200)
	m, _ := testMover(t, testTopo(2), src)
	if _, _, err := m.Stream(); err != nil {
		t.Fatal(err)
	}
	m.BeginCutover()
	m.DrainQueue()
	src.failDels.Store(1 << 20)
	_, err := m.GC()
	if err == nil || !strings.Contains(err.Error(), "injected delete failure") {
		t.Fatalf("GC = %v, want the local datalet's refusal", err)
	}
	if st := m.Status(); st.Phase != "failed" {
		t.Fatalf("status = %+v, want phase failed", st)
	}
}

// The GC walk shares the snapshot's scanner, so it also stops between
// chunks once the mover is stopped: what it leaves is garbage the source no
// longer owns, the state a failed GC leaves too.
func TestMoverGCStopsOnStop(t *testing.T) {
	src := newFakeDatalet()
	fillSource(src, 2*scanBatch)
	m, _ := testMover(t, testTopo(2), src)
	m.Stop()
	if _, err := m.GC(); err != errMoverStopped {
		t.Fatalf("GC after Stop = %v, want %v", err, errMoverStopped)
	}
	// Keys sort in insertion order, so the first chunk is the first half.
	for i := 0; i < 2*scanBatch; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if !m.Moves([]byte(k)) {
			continue
		}
		if _, ok := src.get("", k); ok != (i >= scanBatch) {
			t.Fatalf("moved key %q present = %v after a GC stopped past its first chunk", k, ok)
		}
	}
}

func TestMoverStopLiftsBarrierAndDrains(t *testing.T) {
	target := testTopo(2)
	m, _ := testMover(t, target, newFakeDatalet())
	m.BeginCutover()
	m.Stop()
	if m.Blocks([]byte("k")) {
		t.Fatal("Stop must lift the cutover barrier")
	}
	// Mirror after stop must not deadlock or leak pending marks.
	m.Mirror(false, "", []byte("late"), []byte("v"), 1)
	doneCh := make(chan struct{})
	go func() { m.DrainQueue(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("DrainQueue hangs after Stop")
	}
}

func TestNewValidation(t *testing.T) {
	good := Config{
		Spec:  Spec{ID: "m", SourceShard: "s0", Target: testTopo(2)},
		Local: newFakeDatalet(),
		Dest:  func(topology.Node) (Backend, error) { return newFakeDatalet(), nil },
	}
	cases := []func(*Config){
		func(c *Config) { c.Spec.Target = nil },
		func(c *Config) { c.Spec.ID = "" },
		func(c *Config) { c.Spec.SourceShard = "" },
		func(c *Config) { c.Spec.Target = testTopo(2); c.Spec.Target.Partitioner = topology.RangePartitioner },
		func(c *Config) { c.Local = nil },
		func(c *Config) { c.Dest = nil },
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	m, err := New(good)
	if err != nil {
		t.Fatal(err)
	}
	m.Stop()
}
