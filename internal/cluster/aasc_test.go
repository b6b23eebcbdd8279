package cluster

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/faultnet"
	"bespokv/internal/histcheck"
	"bespokv/internal/metrics"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// lockTTL is controlet.Config.LockTTL's default, which the harness keeps.
const lockTTL = 2 * time.Second

// slotOwner finds key's slot owner under the coordinator's current map and
// its index in c.Shards[0] (-1 when it is not one of the original pairs).
func slotOwner(t *testing.T, c *Cluster, key []byte) (int, string) {
	t.Helper()
	admin, err := c.Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	m, err := admin.GetMap()
	if err != nil {
		t.Fatal(err)
	}
	owner := m.Shards[0].SlotOwner(topology.SlotOf(key)).ID
	for i, p := range c.Shards[0] {
		if p.Node.ID == owner {
			return i, owner
		}
	}
	return -1, owner
}

// slotLeaseKey is the DLM key of key's slot in shard-0's default table.
func slotLeaseKey(key []byte) string {
	return "\x00shard-0\x00" + fmt.Sprint(topology.SlotOf(key))
}

func slotEvents(event string) int64 {
	return metrics.Default.Counter("bespokv_controlet_slot_lease_total", "event", event).Value()
}

func lockCalls() int64 {
	return metrics.Default.Counter("bespokv_rpc_calls_total", "method", "Lock").Value()
}

// rawDo sends one request straight to a controlet and fails the test unless
// it is answered OK (or NotFound, for a read).
func rawDo(t *testing.T, raw *datalet.Client, req *wire.Request) *wire.Response {
	t.Helper()
	var resp wire.Response
	if err := raw.Do(req, &resp); err != nil {
		t.Fatalf("%s %s: %v", req.Op, req.Key, err)
	}
	if resp.Status != wire.StatusOK && !(req.Op == wire.OpGet && resp.Status == wire.StatusNotFound) {
		t.Fatalf("%s %s: status %s %s", req.Op, req.Key, resp.Status, resp.Err)
	}
	return &resp
}

// TestAASCLinearizableUnlockInFlight hammers ONE key under AA+SC from
// clients pinned to different controlets. A controlet acks its client once
// the release of the key's lease is written to the lock manager, not once
// it has landed, so the next operation — served by another controlet, over
// another lock-manager connection — regularly asks for the lease while the
// previous holder's Unlock is still in flight. It must queue behind that
// release, never overtake the write it covers: the history stays
// linearizable.
func TestAASCLinearizableUnlockInFlight(t *testing.T) {
	c := startCluster(t, Options{
		Mode:            topology.Mode{Topology: topology.AA, Consistency: topology.Strong},
		Shards:          1,
		Replicas:        3,
		DisableFailover: true,
	})
	const key = "hot"
	opsPerClient := 1500
	if testing.Short() {
		opsPerClient = 300
	}
	rec := histcheck.NewRecorder()
	var vals atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, len(c.Shards[0]))
	for w, pair := range c.Shards[0] {
		raw, err := datalet.Dial(c.Net, pair.Controlet.DataAddr(), c.Codec)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		wg.Add(1)
		go func(w int, raw *datalet.Client) {
			defer wg.Done()
			var resp wire.Response
			for i := 0; i < opsPerClient; i++ {
				// Controlets 0 and 1 alternate writes and reads, 2 only reads.
				if w < 2 && i%2 == 0 {
					v := fmt.Sprint(vals.Add(1))
					ref := rec.BeginWrite(w, key, v)
					err := raw.Do(&wire.Request{Op: wire.OpPut, Key: []byte(key), Value: []byte(v)}, &resp)
					if err == nil && resp.Status != wire.StatusOK {
						err = fmt.Errorf("put via controlet %d: status %d %s", w, resp.Status, resp.Err)
					}
					rec.EndWrite(ref, err)
					if err != nil {
						errs <- err
						return
					}
					continue
				}
				ref := rec.BeginRead(w, key)
				err := raw.Do(&wire.Request{Op: wire.OpGet, Key: []byte(key)}, &resp)
				found := resp.Status == wire.StatusOK
				if err == nil && !found && resp.Status != wire.StatusNotFound {
					err = fmt.Errorf("get via controlet %d: status %d %s", w, resp.Status, resp.Err)
				}
				rec.EndRead(ref, string(resp.Value), found, err)
				if err != nil {
					errs <- err
					return
				}
			}
		}(w, raw)
	}
	wg.Wait()
	close(errs)
	// No faults are injected: every operation must have succeeded, or the
	// history below is thinner than it claims.
	for err := range errs {
		t.Error(err)
	}
	rep := histcheck.Check(rec.Ops(), histcheck.Options{MaxStates: 5_000_000})
	t.Logf("history: %d ops on one key; %s", rec.Len(), rep)
	if !rep.Ok() {
		t.Fatalf("AA+SC history with releases in flight is not linearizable: %s", rep)
	}
}

// TestNemesisLinearizableAASC runs the linearizability nemesis against
// AA+SC, whose slot owners keep their DLM leases across operations, and
// crashes the owner of k0's slot 1.2 s in: cut off first, so the write-alls
// it has in flight never land and its leases run out by their TTL while the
// isolate/split/one-way schedule goes on. A client backs off 50 ms after a
// failed op, as a real one would: every failed write stays open in the
// history (it may yet take effect), and a dead AA+SC peer refuses the
// write-all fast enough to pile hundreds of them onto one key within a
// failure-detection timeout — more than the checker can search.
func TestNemesisLinearizableAASC(t *testing.T) {
	runLinearizableNemesis(t, aaSC, 50*time.Millisecond, func(c *Cluster, f *faultnet.Fabric, keys []string, stop <-chan struct{}) {
		select {
		case <-stop:
			return
		case <-time.After(1200 * time.Millisecond):
		}
		admin, err := c.Admin()
		if err != nil {
			t.Logf("no owner crash: %v", err)
			return
		}
		defer admin.Close()
		m, err := admin.GetMap()
		if err != nil {
			t.Logf("no owner crash: %v", err)
			return
		}
		owner := m.Shards[0].SlotOwner(topology.SlotOf([]byte(keys[0]))).ID
		for ri, p := range c.Shards[0] {
			if p.Node.ID == owner {
				t.Logf("crashing %s, the owner of %s's slot", owner, keys[0])
				f.Isolate(owner)
				c.KillNode(0, ri)
				return
			}
		}
		t.Logf("no owner crash: %s's owner %s is a promoted standby", keys[0], owner)
	})
}

// A crashed owner's slot is writable through another controlet once its
// lease has run out: within LockTTL plus the coordinator's failure-detection
// timeout of the crash, the write-all's dead peer being failed out by then.
func TestAASCDeadOwnerTakeover(t *testing.T) {
	c, f := startFaultCluster(t, 1, Options{Mode: aaSC, Shards: 1, Replicas: 3})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	key := []byte("takeover")
	if err := cli.Put("", key, []byte("before")); err != nil {
		t.Fatal(err)
	}
	ri, owner := slotOwner(t, c, key)
	if got := c.DLM.Leases()[slotLeaseKey(key)]; got != owner {
		t.Fatalf("slot lease held by %q after a write, want the owner %s", got, owner)
	}
	peer := c.Shards[0][(ri+1)%3]
	raw, err := datalet.Dial(f.Host("client"), peer.Controlet.DataAddr(), c.Codec)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetCallTimeout(10 * time.Second)

	// A crash, not a shutdown: cut the owner off first, so the Unlock its
	// Close sends never leaves it and the lease has to run out.
	f.Isolate(owner)
	c.KillNode(0, ri)
	start := time.Now()
	var resp wire.Response
	for {
		resp.Reset()
		err := raw.Do(&wire.Request{Op: wire.OpPut, Key: key, Value: []byte("after")}, &resp)
		if err == nil && resp.Status == wire.StatusOK {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("no write through %s 10s after %s died: %v %s %s", peer.Node.ID, owner, err, resp.Status, resp.Err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	took, bound := time.Since(start), lockTTL+c.Opts.HeartbeatTimeout
	t.Logf("slot of %s taken over %v after its owner %s died (bound %v)", key, took.Round(time.Millisecond), owner, bound)
	if took > bound {
		t.Fatalf("takeover took %v, want <= LockTTL + HeartbeatTimeout = %v", took, bound)
	}
	if v, ok, err := cli.Get("", key); err != nil || !ok || string(v) != "after" {
		t.Fatalf("read after takeover: %q %v %v", v, ok, err)
	}
}

// Two controlets that disagree on a slot's owner relay an op at most once:
// the second hop serves it under a per-op lease rather than relaying back.
// No op fails while the maps disagree, and once they agree again every op
// through a non-owner is relayed once to the owner and served there.
func TestAASCMapSkewRelaysOnce(t *testing.T) {
	c := startCluster(t, Options{Mode: aaSC, Shards: 1, Replicas: 3, DisableFailover: true})
	admin, err := c.Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	m, err := admin.GetMap()
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("skewed")
	slot := topology.SlotOf(key)
	o := m.Shards[0].SlotOwner(slot).ID
	// The skewed map marks the owner recovering: whoever holds it sees
	// another owner, y.
	skew := m.Clone()
	for i := range skew.Shards[0].Replicas {
		skew.Shards[0].Replicas[i].Recovering = skew.Shards[0].Replicas[i].ID == o
	}
	y := skew.Shards[0].SlotOwner(slot).ID
	pairs := map[string]*Pair{}
	var x string
	for _, p := range c.Shards[0] {
		pairs[p.Node.ID] = p
		if p.Node.ID != o && p.Node.ID != y {
			x = p.Node.ID
		}
	}
	raw, err := datalet.Dial(c.Net, pairs[x].Controlet.DataAddr(), c.Codec)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetCallTimeout(10 * time.Second)
	rawDo(t, raw, &wire.Request{Op: wire.OpPut, Key: key, Value: []byte("v0")}) // o takes the lease

	const n = 40
	run := func(phase string, wantFallbacks int64) {
		t.Helper()
		relays, fallbacks := slotEvents("relay"), slotEvents("fallback")
		for i := 0; i < n; i++ {
			v := fmt.Sprintf("%s-%d", phase, i)
			rawDo(t, raw, &wire.Request{Op: wire.OpPut, Key: key, Value: []byte(v)})
			if got := rawDo(t, raw, &wire.Request{Op: wire.OpGet, Key: key}); string(got.Value) != v {
				t.Fatalf("%s: read %q after writing %q", phase, got.Value, v)
			}
		}
		if got := slotEvents("relay") - relays; got != 2*n {
			t.Fatalf("%s: %d relays for %d ops through a non-owner, want exactly one each", phase, got, 2*n)
		}
		if got := slotEvents("fallback") - fallbacks; got != wantFallbacks {
			t.Fatalf("%s: %d ops served under a per-op lease, want %d", phase, got, wantFallbacks)
		}
	}

	// x and o hold the skewed map, y the true one: x relays to y, y thinks o
	// owns the slot but does not relay a relayed op, and o gives its lease
	// back since it no longer thinks it owns the slot.
	pairs[x].Controlet.SetMap(skew)
	pairs[o].Controlet.SetMap(skew)
	run("skewed", 2*n)

	// Converged: x relays to o, which serves under the lease it keeps.
	for _, p := range pairs {
		p.Controlet.SetMap(m)
	}
	run("converged", 0)
}

// AA+SC → MS+SC → AA+SC leaves no slot lease held by an old-mode controlet:
// the AA+SC controlets give theirs back when the transition map arrives (or
// when they are retired), the MS+SC ones take none.
func TestAASCTransitionsLeaveNoOldLeases(t *testing.T) {
	c := startCluster(t, Options{Mode: aaSC, Shards: 1, Replicas: 3, DisableFailover: true})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	write := func(round int) {
		t.Helper()
		for i := 0; i < 64; i++ {
			k := []byte(fmt.Sprintf("t-%02d", i))
			if err := cli.Put("", k, []byte(fmt.Sprint(round))); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	generation := func() map[string]bool {
		ids := map[string]bool{}
		for _, p := range c.Shards[0] {
			ids[p.Node.ID] = true
		}
		return ids
	}
	holders := func(want map[string]bool) string {
		leases := c.DLM.Leases()
		for key, holder := range leases {
			if !want[holder] {
				return fmt.Sprintf("slot %q held by %s, not a live AA+SC controlet (%d leases)", key, holder, len(leases))
			}
		}
		return ""
	}

	write(1)
	first := generation()
	if n := len(c.DLM.Leases()); n == 0 {
		t.Fatal("no slot leases held after AA+SC writes")
	}
	if problem := holders(first); problem != "" {
		t.Fatal(problem)
	}
	if err := c.Transition(msSC); err != nil {
		t.Fatal(err)
	}
	write(2)
	eventually(t, 5*time.Second, func() string { return holders(nil) })
	if err := c.Transition(aaSC); err != nil {
		t.Fatal(err)
	}
	write(3)
	third := generation()
	if problem := holders(third); problem != "" {
		t.Fatal(problem)
	}
	if len(c.DLM.Leases()) == 0 {
		t.Fatal("the new AA+SC controlets hold no slot leases after writing")
	}
	for id := range first {
		if third[id] {
			t.Fatalf("%s is in the first and the third generation", id)
		}
	}
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("t-%02d", i))
		if v, ok, err := cli.Get("", k); err != nil || !ok || string(v) != "3" {
			t.Fatalf("%s after two transitions: %q %v %v", k, v, ok, err)
		}
	}
}

// Steady state, a uniform 50 % PUT AA+SC load costs well under one DLM call
// per ten client operations: each slot's owner locks it once and renews it
// every half TTL, whatever the op rate. The ratio is printed for review.
func TestAASCSteadyStateLockRatio(t *testing.T) {
	c := startCluster(t, Options{Mode: aaSC, Shards: 1, Replicas: 3, DisableFailover: true})
	const keys, callers = 4096, 2
	var ops atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		cli, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			val := []byte(strings.Repeat("v", 32))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("user%012d", rand.IntN(keys)))
				var err error
				if rand.IntN(2) == 0 {
					err = cli.Put("", k, val)
				} else {
					_, _, err = cli.Get("", k)
				}
				if err != nil {
					errs <- err
					return
				}
				ops.Add(1)
			}
		}()
	}
	time.Sleep(500 * time.Millisecond) // warm-up: every slot's owner takes its lease
	ops0, locks0, acq0, renew0 := ops.Load(), lockCalls(), slotEvents("acquire"), slotEvents("renew")
	time.Sleep(1500 * time.Millisecond)
	dOps, dLocks := ops.Load()-ops0, lockCalls()-locks0
	dAcq, dRenew := slotEvents("acquire")-acq0, slotEvents("renew")-renew0
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if dOps == 0 {
		t.Fatal("no operations in the measured window")
	}
	ratio := float64(dLocks) / float64(dOps)
	t.Logf("steady-state DLM Lock calls per client op: %.4f (%d Lock calls — %d acquire, %d renew — for %d ops)",
		ratio, dLocks, dAcq, dRenew, dOps)
	if ratio >= 0.1 {
		t.Fatalf("%.3f DLM Lock calls per op in steady state, want < 0.1", ratio)
	}
}
