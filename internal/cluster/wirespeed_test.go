package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/client"
	"bespokv/internal/faultnet"
	"bespokv/internal/histcheck"
	"bespokv/internal/metrics"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// Wire-speed read suite: leased direct datalet reads, shard-coalesced
// multi-get/multi-put, and hedged requests (ISSUE 6).

// counterValue reads an unlabelled counter as a scrape does, whether a
// Counter or a CounterFunc keeps it.
func counterValue(name string) int64 {
	var b strings.Builder
	if err := metrics.Default.WriteProm(&b); err != nil {
		panic(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

// TestDirectReadWrongEpochFallback pins a client to a stale map (watch
// disabled) and bumps the cluster epoch under it: its next direct read must
// be refused by the datalet's epoch fence (StatusWrongEpoch), fall back
// through the controlet transparently, and still return the right value.
func TestDirectReadWrongEpochFallback(t *testing.T) {
	c := startCluster(t, Options{
		Mode:            topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:          1,
		Replicas:        3,
		DisableFailover: true,
		// A roomy lease so the staleness window below is about epochs,
		// not about the TTL expiring mid-test.
		HeartbeatTimeout: 10 * time.Second,
	})
	cli, err := c.ClientConfig(client.Config{DirectReads: true, DisableWatch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.Put("", []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Sanity: with a live lease and a current map, strong reads go
	// straight to the tail datalet.
	direct0 := counterValue("bespokv_client_direct_reads_total")
	v, ok, err := cli.Get("", []byte("k"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("direct read: %q %v %v", v, ok, err)
	}
	if d := counterValue("bespokv_client_direct_reads_total") - direct0; d != 1 {
		t.Fatalf("expected 1 direct read, counter moved by %d", d)
	}
	staleEpoch := cli.Map().Epoch

	// Bump the epoch behind the client's back (same shards, new map
	// version — what any failover/transition/migration cutover does).
	admin, err := c.Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	m, err := admin.GetMap()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := admin.SetMap(m); err != nil {
		t.Fatal(err)
	}
	// Wait until every replica's datalet has been granted the new epoch.
	eventually(t, 5*time.Second, func() string {
		for ri := 0; ri < 3; ri++ {
			ep, live := c.Pair(0, ri).Datalet.LeaseEpoch()
			if !live || ep <= staleEpoch {
				return fmt.Sprintf("replica %d datalet still at epoch %d", ri, ep)
			}
		}
		return ""
	})

	// The client's map is still stale: the direct read must be fenced and
	// fall back, not serve (and certainly not fail).
	fallback0 := counterValue("bespokv_client_direct_fallbacks_total")
	v, ok, err = cli.Get("", []byte("k"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("fenced read fell over instead of falling back: %q %v %v", v, ok, err)
	}
	if d := counterValue("bespokv_client_direct_fallbacks_total") - fallback0; d < 1 {
		t.Fatalf("expected a direct-read fallback, counter moved by %d", d)
	}

	// The WrongEpoch triggered a background refresh; once the client has
	// the new map, direct reads resume against the new epoch.
	eventually(t, 5*time.Second, func() string {
		if cli.Map().Epoch <= staleEpoch {
			return "client map still stale"
		}
		return ""
	})
	direct1 := counterValue("bespokv_client_direct_reads_total")
	v, ok, err = cli.Get("", []byte("k"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("post-refresh read: %q %v %v", v, ok, err)
	}
	if d := counterValue("bespokv_client_direct_reads_total") - direct1; d != 1 {
		t.Fatalf("direct reads did not resume after refresh, counter moved by %d", d)
	}
}

// TestHotKeyShadowInvalidatedOnEpochBump: a map change must invalidate the
// client's hot-key shadow copies — after the bump, reads must come from the
// primary (which another client updated) and never from the stale shadow.
func TestHotKeyShadowInvalidatedOnEpochBump(t *testing.T) {
	c := startCluster(t, Options{
		Mode:            topology.Mode{Topology: topology.MS, Consistency: topology.Eventual},
		Shards:          2,
		Replicas:        1,
		DisableFailover: true,
	})
	hot, err := c.ClientConfig(client.Config{HotKeyThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer hot.Close()
	plain, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	key := []byte("celebrity")
	// Make the key hot and give it a fresh shadow copy at v1.
	for i := 0; i < 4; i++ {
		if err := hot.Put("", key, []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	// Another client (no hot-key tracking) moves the primary to v2; the
	// shadow still holds v1.
	if err := plain.Put("", key, []byte("v2")); err != nil {
		t.Fatal(err)
	}

	// Map change: epoch bump, as any failover/migration cutover causes.
	admin, err := c.Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	m, err := admin.GetMap()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := admin.SetMap(m); err != nil {
		t.Fatal(err)
	}
	bumped := m.Epoch
	eventually(t, 5*time.Second, func() string {
		if hot.Map().Epoch <= bumped {
			return "hot client has not observed the epoch bump"
		}
		return ""
	})

	// Every read must now see v2: the coin-flip shadow path is disabled
	// until this client re-establishes the shadow with a fresh write.
	// (Without invalidation, ~half of these reads would return v1.)
	for i := 0; i < 30; i++ {
		v, ok, err := hot.Get("", key)
		if err != nil || !ok {
			t.Fatalf("read %d: %v %v", i, ok, err)
		}
		if string(v) != "v2" {
			t.Fatalf("read %d returned stale shadow value %q after epoch bump", i, v)
		}
	}
}

// TestMultiGetMultiPutAllModes round-trips a batch through every mode:
// coalesced writes land, coalesced reads see them (eventually, under EC),
// and absent keys report NotFound per key rather than failing the batch.
func TestMultiGetMultiPutAllModes(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c := startCluster(t, Options{Mode: mode, Shards: 2, Replicas: 2, DisableFailover: true})
			cli, err := c.Client()
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			const n = 40
			pairs := make([]wire.KV, n)
			keys := make([][]byte, 0, n+2)
			for i := range pairs {
				pairs[i] = wire.KV{
					Key:   []byte(fmt.Sprintf("mk%03d", i)),
					Value: []byte(fmt.Sprintf("mv%03d", i)),
				}
				keys = append(keys, pairs[i].Key)
			}
			keys = append(keys, []byte("absent-a"), []byte("absent-b"))

			errs, err := cli.MultiPut("", pairs)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range errs {
				if e != nil {
					t.Fatalf("pair %d: %v", i, e)
				}
			}

			// EC modes guarantee convergence, not read-your-writes from an
			// arbitrary replica; poll until the whole batch is visible.
			eventually(t, 10*time.Second, func() string {
				res, err := cli.MultiGet("", keys)
				if err != nil {
					return err.Error()
				}
				for i := 0; i < n; i++ {
					if res[i].Err != nil {
						return fmt.Sprintf("key %d: %v", i, res[i].Err)
					}
					if !res[i].Found || string(res[i].Value) != string(pairs[i].Value) {
						return fmt.Sprintf("key %d: found=%v value=%q", i, res[i].Found, res[i].Value)
					}
				}
				for i := n; i < len(keys); i++ {
					if res[i].Found || res[i].Err != nil {
						return fmt.Sprintf("absent key %d: found=%v err=%v", i, res[i].Found, res[i].Err)
					}
				}
				return ""
			})
		})
	}
}

// TestMultiPutPartialFailure kills one shard and batches across both: the
// dead shard's keys must come back with per-key errors while the healthy
// shard's writes land — a batch is not a transaction.
func TestMultiPutPartialFailure(t *testing.T) {
	c := startCluster(t, Options{
		Mode:            topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:          2,
		Replicas:        1,
		DisableFailover: true,
	})
	cli, err := c.ClientConfig(client.Config{
		Retries:      2,
		RetryBackoff: 2 * time.Millisecond,
		OpTimeout:    500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Sort keys into shards under the live map so the batch provably
	// spans both.
	m := cli.Map()
	ring := topology.BuildRing(m)
	var pairs []wire.KV
	var wantShard []int
	perShard := map[int]int{}
	for i := 0; len(pairs) < 24; i++ {
		k := []byte(fmt.Sprintf("pf%03d", i))
		si := m.ShardFor(k, ring)
		if perShard[si] >= 12 {
			continue
		}
		perShard[si]++
		pairs = append(pairs, wire.KV{Key: k, Value: []byte(fmt.Sprintf("pv%03d", i))})
		wantShard = append(wantShard, si)
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Fatalf("keys did not span both shards: %v", perShard)
	}

	c.KillNode(1, 0) // shard 1 has one replica; it is now fully down

	errs, err := cli.MultiPut("", pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if wantShard[i] == 1 && e == nil {
			t.Fatalf("pair %d (dead shard) reported success", i)
		}
		if wantShard[i] == 0 && e != nil {
			t.Fatalf("pair %d (healthy shard) failed: %v", i, e)
		}
	}

	// The healthy shard's writes must be durable and readable.
	var liveKeys [][]byte
	var liveVals [][]byte
	for i := range pairs {
		if wantShard[i] == 0 {
			liveKeys = append(liveKeys, pairs[i].Key)
			liveVals = append(liveVals, pairs[i].Value)
		}
	}
	res, err := cli.MultiGet("", liveKeys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Err != nil || !res[i].Found || string(res[i].Value) != string(liveVals[i]) {
			t.Fatalf("healthy key %d: %+v", i, res[i])
		}
	}
}

// TestHedgedReadsCutTailLatency injects a fixed delay on one replica's
// links: hedged eventual reads must route around it (tail far below the
// injected delay, hedge wins observed), and a budgeted client must not
// hedge more than its budget allows.
func TestHedgedReadsCutTailLatency(t *testing.T) {
	const injected = 80 * time.Millisecond
	c, f := startFaultCluster(t, 1, Options{
		Mode:            topology.Mode{Topology: topology.MS, Consistency: topology.Eventual},
		Shards:          1,
		Replicas:        3,
		DisableFailover: true,
	})
	cli, err := c.ClientConfig(client.Config{
		DisableWatch:   true, // watch long-polls would skew nothing, but keep the run quiet
		HedgeAfter:     5 * time.Millisecond,
		HedgeBudgetPct: 100,
		OpTimeout:      2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.Put("", []byte("hk"), []byte("hv")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, 0, 1)

	// Slow every packet to and from one replica; the other two stay fast.
	slow := c.Pair(0, 2).Node.ID
	f.SetLink("client", slow, faultnet.Rule{Delay: injected})
	f.SetLink(slow, "client", faultnet.Rule{Delay: injected})

	const reads = 150
	hedged0 := counterValue("bespokv_client_hedged_reads_total")
	wins0 := counterValue("bespokv_client_hedge_wins_total")
	lat := make([]time.Duration, 0, reads)
	for i := 0; i < reads; i++ {
		start := time.Now()
		_, ok, err := cli.GetLevel("", []byte("hk"), wire.LevelEventual)
		if err != nil || !ok {
			t.Fatalf("read %d: %v %v", i, ok, err)
		}
		lat = append(lat, time.Since(start))
	}
	hedges := counterValue("bespokv_client_hedged_reads_total") - hedged0
	wins := counterValue("bespokv_client_hedge_wins_total") - wins0
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p95 := lat[len(lat)*95/100]
	t.Logf("hedges=%d wins=%d p50=%v p95=%v max=%v", hedges, wins, lat[len(lat)/2], p95, lat[len(lat)-1])
	if wins == 0 {
		t.Fatal("no hedge ever won; the slow replica was never routed around")
	}
	// ~1/3 of picks hit the slow replica; every one must be rescued well
	// under the injected delay (hedge fires at ~5ms, fast replica answers
	// in microseconds).
	if p95 >= injected {
		t.Fatalf("p95 %v did not beat the injected %v delay", p95, injected)
	}

	// Budget: a 10%-budget client against the same slow replica may hedge
	// at most pct*reads/100 plus the banked burst.
	budgeted, err := c.ClientConfig(client.Config{
		DisableWatch:   true,
		HedgeAfter:     5 * time.Millisecond,
		HedgeBudgetPct: 10,
		OpTimeout:      2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer budgeted.Close()
	hedged1 := counterValue("bespokv_client_hedged_reads_total")
	for i := 0; i < reads; i++ {
		if _, _, err := budgeted.GetLevel("", []byte("hk"), wire.LevelEventual); err != nil {
			t.Fatalf("budgeted read %d: %v", i, err)
		}
	}
	budgetHedges := counterValue("bespokv_client_hedged_reads_total") - hedged1
	maxAllowed := int64(reads*10/100 + 10 + 1) // budget + banked burst + the startup token
	t.Logf("budgeted client hedged %d of %d reads (cap %d)", budgetHedges, reads, maxAllowed)
	if budgetHedges > maxAllowed {
		t.Fatalf("budget exceeded: %d hedges > %d allowed", budgetHedges, maxAllowed)
	}
}

// TestMSSCLinearizableWithDirectReads runs concurrent writers and direct-
// reading readers against MS+SC and checks the recorded per-key history for
// linearizability: a tail datalet read under an epoch lease must be
// indistinguishable from a controlet tail read.
func TestMSSCLinearizableWithDirectReads(t *testing.T) {
	c := startCluster(t, Options{
		Mode:            topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:          1,
		Replicas:        3,
		DisableFailover: true,
	})
	keys := []string{"k0", "k1", "k2", "k3"}
	rec := histcheck.NewRecorder()
	var vals atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	directBefore := counterValue("bespokv_client_direct_reads_total")
	for w := 0; w < 6; w++ {
		cli, err := c.ClientConfig(client.Config{DirectReads: true, Retries: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		wg.Add(1)
		go func(w int, cli *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(2) == 0 {
					v := fmt.Sprint(vals.Add(1))
					ref := rec.BeginWrite(w, k, v)
					err := cli.Put("", []byte(k), []byte(v))
					rec.EndWrite(ref, err)
				} else {
					ref := rec.BeginRead(w, k)
					v, ok, err := cli.Get("", []byte(k))
					rec.EndRead(ref, string(v), ok, err)
				}
				time.Sleep(time.Millisecond)
			}
		}(w, cli)
	}
	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()

	if d := counterValue("bespokv_client_direct_reads_total") - directBefore; d == 0 {
		t.Fatal("no read ever took the direct path; the test exercised nothing")
	}
	ops := rec.Ops()
	rep := histcheck.Check(ops, histcheck.Options{MaxStates: 5_000_000})
	t.Logf("history: %d ops; %s", len(ops), rep)
	if !rep.Ok() {
		t.Fatalf("history with direct reads not linearizable: %s", rep)
	}
}

// msecDirectCluster starts the 2x3 MS+EC cluster the direct multi-get tests
// and benchmark read from (inproc, binary codec, ht engines), with a roomy
// heartbeat timeout so a direct-read lease outlives the test's pauses.
func msecDirectCluster(tb testing.TB, logf func(string, ...any)) *Cluster {
	tb.Helper()
	c, err := Start(Options{
		Mode:             topology.Mode{Topology: topology.MS, Consistency: topology.Eventual},
		Shards:           2,
		Replicas:         3,
		Engine:           "ht",
		CodecName:        "binary",
		DisableFailover:  true,
		HeartbeatTimeout: 10 * time.Second,
		Logf:             logf,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return c
}

// spanningKeys returns n keys, half on each of the map's two shards, with
// their values written through cli and readable from every replica (an
// eventual read may go to any of them).
func spanningKeys(tb testing.TB, c *Cluster, cli *client.Client, n int) [][]byte {
	tb.Helper()
	m := cli.Map()
	ring := topology.BuildRing(m)
	var (
		pairs   []wire.KV
		shardOf []int
	)
	perShard := map[int]int{}
	for i := 0; len(pairs) < n; i++ {
		k := []byte(fmt.Sprintf("user%012d", i))
		si := m.ShardFor(k, ring)
		if perShard[si] >= n/2 {
			continue
		}
		perShard[si]++
		pairs = append(pairs, wire.KV{Key: k, Value: []byte("v-" + string(k))})
		shardOf = append(shardOf, si)
	}
	errs, err := cli.MultiPut("", pairs)
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([][]byte, n)
	for i, e := range errs {
		if e != nil {
			tb.Fatalf("preload %d: %v", i, e)
		}
		keys[i] = pairs[i].Key
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		problem := ""
		for i, k := range keys {
			for ri, p := range c.Shards[shardOf[i]] {
				if v, _, ok, _ := p.Datalet.Engine("").AppendGet(nil, k); !ok || string(v) != "v-"+string(k) {
					problem = fmt.Sprintf("replica %d/%d lacks %s", shardOf[i], ri, k)
				}
			}
		}
		if problem == "" {
			return keys
		}
		if time.Now().After(deadline) {
			tb.Fatal(problem)
		}
	}
}

// multiGetProblem says how res differs from keys' preloaded values, in
// order ("": it does not).
func multiGetProblem(keys [][]byte, res []client.MultiResult, err error) string {
	if err != nil {
		return err.Error()
	}
	for i, r := range res {
		if r.Err != nil || !r.Found || string(r.Value) != "v-"+string(keys[i]) {
			return fmt.Sprintf("key %d (%s): %+v", i, keys[i], r)
		}
	}
	return ""
}

// checkMultiGet fails unless res is keys' preloaded values, in order.
func checkMultiGet(tb testing.TB, keys [][]byte, res []client.MultiResult, err error) {
	tb.Helper()
	if p := multiGetProblem(keys, res, err); p != "" {
		tb.Fatal(p)
	}
}

// TestMultiGetDirectInline: from a client with one connection per datalet,
// a direct MultiGet's bucket frames are sent and read by the calling
// goroutine — 1 000 16-key MultiGets over two shards are 2 000 inline calls
// and next to no writer-goroutine batches — and so is an unhedged
// single-key direct Get.
func TestMultiGetDirectInline(t *testing.T) {
	c := msecDirectCluster(t, t.Logf)
	cli, err := c.ClientConfig(client.Config{PoolSize: 1, DirectReads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	keys := spanningKeys(t, c, cli, 16)
	res, err := cli.MultiGet("", keys) // dials the datalet links
	checkMultiGet(t, keys, res, err)

	const n = 1000
	inline0 := counterValue("bespokv_datalet_client_inline_total")
	batches0 := counterValue("bespokv_datalet_client_batches_total")
	direct0 := counterValue("bespokv_client_direct_reads_total")
	for i := 0; i < n; i++ {
		res, err := cli.MultiGet("", keys)
		checkMultiGet(t, keys, res, err)
	}
	inline := counterValue("bespokv_datalet_client_inline_total") - inline0
	batches := counterValue("bespokv_datalet_client_batches_total") - batches0
	direct := counterValue("bespokv_client_direct_reads_total") - direct0
	t.Logf("%d MultiGets: %d direct frames, %d inline calls, %d writer batches", n, direct, inline, batches)
	if direct != 2*n {
		t.Fatalf("%d direct frames for %d two-shard MultiGets, want %d", direct, n, 2*n)
	}
	if inline < 2*n || batches >= 50 {
		t.Fatalf("%d inline calls and %d writer batches for %d two-shard MultiGets; want >= %d and < 50",
			inline, batches, n, 2*n)
	}

	inline0 = counterValue("bespokv_datalet_client_inline_total")
	batches0 = counterValue("bespokv_datalet_client_batches_total")
	direct0 = counterValue("bespokv_client_direct_reads_total")
	for i := 0; i < n; i++ {
		k := keys[i%len(keys)]
		v, ok, err := cli.Get("", k)
		if err != nil || !ok || string(v) != "v-"+string(k) {
			t.Fatalf("get %s: %q %v %v", k, v, ok, err)
		}
	}
	inline = counterValue("bespokv_datalet_client_inline_total") - inline0
	batches = counterValue("bespokv_datalet_client_batches_total") - batches0
	direct = counterValue("bespokv_client_direct_reads_total") - direct0
	t.Logf("%d Gets: %d direct, %d inline calls, %d writer batches", n, direct, inline, batches)
	if direct != n {
		t.Fatalf("%d of %d Gets were direct", direct, n)
	}
	if inline < n || batches >= 50 {
		t.Fatalf("%d inline calls and %d writer batches for %d direct Gets; want >= %d and < 50", inline, batches, n, n)
	}
}

// TestDirectReadStaleMapRefreshesOnce: a client that missed an epoch bump
// (watch off) hears of it from every direct frame and controlet reply of a
// burst of 32 concurrent MultiGets. The burst must still read correctly,
// and it must cost the coordinator one or two GetMap round trips, not one
// per reply that noticed.
func TestDirectReadStaleMapRefreshesOnce(t *testing.T) {
	c := msecDirectCluster(t, t.Logf)
	cli, err := c.ClientConfig(client.Config{DirectReads: true, DisableWatch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	keys := spanningKeys(t, c, cli, 16)
	res, err := cli.MultiGet("", keys)
	checkMultiGet(t, keys, res, err)
	stale := cli.Map().Epoch

	admin, err := c.Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	m, err := admin.GetMap()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := admin.SetMap(m); err != nil {
		t.Fatal(err)
	}
	// Every datalet fences the old epoch (so every direct frame of the
	// burst is refused) once every controlet has fetched the new map.
	eventually(t, 5*time.Second, func() string {
		for si := 0; si < 2; si++ {
			for ri := 0; ri < 3; ri++ {
				if ep, live := c.Pair(si, ri).Datalet.LeaseEpoch(); !live || ep <= stale {
					return fmt.Sprintf("datalet %d/%d still at epoch %d", si, ri, ep)
				}
			}
		}
		return ""
	})

	getMaps := metrics.Default.Counter("bespokv_rpc_calls_total", "method", "GetMap")
	before := getMaps.Value()
	const callers = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := cli.MultiGet("", keys)
			if p := multiGetProblem(keys, res, err); p != "" {
				errs <- p
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	eventually(t, 5*time.Second, func() string {
		if cli.Map().Epoch <= stale {
			return "client map still stale"
		}
		return ""
	})
	// Let refreshes still in flight land before counting.
	for last := int64(-1); ; {
		time.Sleep(100 * time.Millisecond)
		cur := getMaps.Value()
		if cur == last {
			break
		}
		last = cur
	}
	calls := getMaps.Value() - before
	t.Logf("%d stale MultiGets made %d GetMap calls", callers, calls)
	if calls > 2 {
		t.Fatalf("%d stale MultiGets made %d GetMap calls, want at most 2", callers, calls)
	}
}

// BenchmarkMultiGetDirect is one 16-key direct MultiGet over a 2x3 MS+EC
// cluster (inproc, binary codec, ht engines) from a client with one
// connection per datalet. Its allocs/op, counted over the whole process and
// so the datalets' side too, is the ceiling check.sh wirespeed holds the
// direct multi-get path to.
func BenchmarkMultiGetDirect(b *testing.B) {
	c := msecDirectCluster(b, func(string, ...any) {})
	cli, err := c.ClientConfig(client.Config{PoolSize: 1, DirectReads: true})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	keys := spanningKeys(b, c, cli, 16)
	res, err := cli.MultiGet("", keys)
	checkMultiGet(b, keys, res, err)
	direct0 := counterValue("bespokv_client_direct_reads_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = cli.MultiGet("", keys)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	checkMultiGet(b, keys, res, err)
	if d := counterValue("bespokv_client_direct_reads_total") - direct0; d != int64(2*b.N) {
		b.Fatalf("%d direct frames for %d MultiGets, want %d", d, b.N, 2*b.N)
	}
}

// BenchmarkRoutedGet: one client Get through a 1x3 MS+SC cluster — client
// route, controlet dispatch to the tail, datalet, and back — on a client
// with one connection per address, so every call runs inline. Its
// allocs/op count the whole hop, datalets included.
func BenchmarkRoutedGet(b *testing.B) {
	c, err := Start(Options{
		Mode:             topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:           1,
		Replicas:         3,
		DisableFailover:  true,
		HeartbeatTimeout: 10 * time.Second,
		Logf:             func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cli, err := c.ClientConfig(client.Config{PoolSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	key, val := []byte("routed-key"), []byte("routed-value-of-32-bytes-exact!!")
	if err := cli.Put("", key, val); err != nil {
		b.Fatal(err)
	}
	get := func() {
		v, ok, err := cli.Get("", key)
		if err != nil || !ok || string(v) != string(val) {
			b.Fatalf("get: %q %v %v", v, ok, err)
		}
	}
	get() // dials the route
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}
