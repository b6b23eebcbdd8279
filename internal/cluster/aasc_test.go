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

func slotRelays() int64 {
	return metrics.Default.Counter("bespokv_controlet_slot_lease_total", "event", "relay").Value()
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
// clients pinned to different controlets. Two of them do not own the key's
// slot and relay every op to the one that does, so each op's answer
// travels back over a second hop while the owner already serves the next
// one: the owner's copy, applied after every peer's, not the order answers
// arrive in, must keep the history linearizable.
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
// AA+SC, whose slot owners serve under the map's authority alone, with one
// more fault per schedule on top of the isolate/split/one-way rounds,
// 1.2 s in:
//   - owner-crash: the owner of k0's slot is cut off, so the write-alls it
//     has in flight never land, and killed; the standby promoted in its
//     place then gains slots from live owners, a planned handoff;
//   - held-write-all: the owner of k0's slot is cut off for three heartbeat
//     timeouts and then let back: the write-all frames it sent meanwhile
//     were held in the partition and arrive after its fence, from an epoch
//     its peers have moved past;
//   - control-leader-kill: under a replicated control plane, the
//     coordinator's leader dies, and heartbeats go unanswered until a new
//     one is elected (the owners fence if that takes a heartbeat timeout).
//
// The last two run five rounds, not three: their extra fault costs ops the
// checker needs. A client backs off 50 ms after a failed op, as a real one would: every
// failed write stays open in the history (it may yet take effect), and a
// dead AA+SC peer refuses the write-all fast enough to pile hundreds of
// them onto one key within a failure-detection timeout — more than the
// checker can search.
func TestNemesisLinearizableAASC(t *testing.T) {
	after := func(stop <-chan struct{}) bool {
		select {
		case <-stop:
			return false
		case <-time.After(1200 * time.Millisecond):
			return true
		}
	}
	// ownerOf finds the pair that owns key's slot under the coordinator's map.
	ownerOf := func(c *Cluster, key string) (int, string) {
		admin, err := c.Admin()
		if err != nil {
			t.Logf("no owner: %v", err)
			return -1, ""
		}
		defer admin.Close()
		m, err := admin.GetMap()
		if err != nil {
			t.Logf("no owner: %v", err)
			return -1, ""
		}
		owner := m.Shards[0].SlotOwner(topology.SlotOf([]byte(key))).ID
		for ri, p := range c.Shards[0] {
			if p.Node.ID == owner {
				return ri, owner
			}
		}
		t.Logf("no owner: %s's owner %s is a promoted standby", key, owner)
		return -1, ""
	}
	t.Run("owner-crash", func(t *testing.T) {
		runLinearizableNemesis(t, Options{Mode: aaSC}, 3, 50*time.Millisecond, func(c *Cluster, f *faultnet.Fabric, keys []string, stop <-chan struct{}) {
			if !after(stop) {
				return
			}
			if ri, owner := ownerOf(c, keys[0]); ri >= 0 {
				t.Logf("crashing %s, the owner of %s's slot", owner, keys[0])
				f.Isolate(owner)
				c.KillNode(0, ri)
			}
		})
	})
	t.Run("held-write-all", func(t *testing.T) {
		runLinearizableNemesis(t, Options{Mode: aaSC}, 5, 50*time.Millisecond, func(c *Cluster, f *faultnet.Fabric, keys []string, stop <-chan struct{}) {
			if !after(stop) {
				return
			}
			ri, owner := ownerOf(c, keys[0])
			if ri < 0 {
				return
			}
			hold := 3 * c.Opts.HeartbeatTimeout
			t.Logf("holding %s, the owner of %s's slot, and its frames for %v", owner, keys[0], hold)
			f.Isolate(owner)
			select {
			case <-stop:
			case <-time.After(hold):
			}
			f.Heal()
		})
	})
	t.Run("control-leader-kill", func(t *testing.T) {
		// Failure detection slower than an election, so the owners fence
		// only when the election takes longer than usual.
		opts := Options{Mode: aaSC, ReplicatedControl: 3, ControlElectionTimeout: ctlElectionTimeout,
			HeartbeatTimeout: 800 * time.Millisecond}
		runLinearizableNemesis(t, opts, 5, 50*time.Millisecond, func(c *Cluster, f *faultnet.Fabric, keys []string, stop <-chan struct{}) {
			if !after(stop) {
				return
			}
			if id, err := c.KillCoordLeader(); err != nil {
				t.Logf("no leader kill: %v", err)
			} else {
				t.Logf("killed coordinator leader %s", id)
			}
		})
	})
}

// A crashed owner's slot is writable through another controlet within the
// coordinator's failure-detection timeout plus the owner's fence: the map
// that fails the owner out moves its slots, and a slot whose previous owner
// left the map is armed as soon as that map is installed.
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
	peer := c.Shards[0][(ri+1)%3]
	raw, err := datalet.Dial(f.Host("client"), peer.Controlet.DataAddr(), c.Codec)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetCallTimeout(10 * time.Second)

	// A crash, not a shutdown: cut the owner off first.
	f.Isolate(owner)
	c.KillNode(0, ri)
	start := time.Now()
	eventually(t, 10*time.Second, func() string {
		var resp wire.Response
		err := raw.Do(&wire.Request{Op: wire.OpPut, Key: key, Value: []byte("after")}, &resp)
		if err == nil && resp.Status == wire.StatusOK {
			return ""
		}
		return fmt.Sprintf("no write through %s %v after %s died: %v %s %s",
			peer.Node.ID, time.Since(start).Round(time.Millisecond), owner, err, resp.Status, resp.Err)
	})
	took, bound := time.Since(start), c.Opts.HeartbeatTimeout+c.fenceTimeout()
	t.Logf("slot of %s taken over %v after its owner %s died (bound %v)", key, took.Round(time.Millisecond), owner, bound)
	if took > bound {
		t.Fatalf("takeover took %v, want <= HeartbeatTimeout + FenceTimeout = %v", took, bound)
	}
	if v, ok, err := cli.Get("", key); err != nil || !ok || string(v) != "after" {
		t.Fatalf("read after takeover: %q %v %v", v, ok, err)
	}
}

// Controlets whose maps disagree on a slot's owner never serve it as a
// non-owner, and relay an op at most once. The skewed map (one epoch
// later) marks the owner o recovering, so whoever holds it sees another
// owner, y: o and x hold it, y does not. Every op on the slot is then
// relayed once and refused by the replica it reaches, which does not own
// the slot under its map either; nothing is acked. Once y holds the skewed
// map too, every op through the client — whose map still names o —
// succeeds, relayed once from o to y.
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
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	key := []byte("skewed")
	slot := topology.SlotOf(key)
	o := m.Shards[0].SlotOwner(slot).ID
	skew := m.Clone()
	skew.Epoch++
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
	if err := cli.Put("", key, []byte("v0")); err != nil {
		t.Fatal(err)
	}

	pairs[x].Controlet.SetMap(skew)
	pairs[o].Controlet.SetMap(skew)
	relays := slotRelays()
	for _, id := range []string{x, o, y} {
		raw, err := datalet.Dial(c.Net, pairs[id].Controlet.DataAddr(), c.Codec)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		for _, req := range []*wire.Request{
			{Op: wire.OpPut, Key: key, Value: []byte("skewed-" + id)},
			{Op: wire.OpGet, Key: key},
		} {
			var resp wire.Response
			if err := raw.Do(req, &resp); err != nil {
				t.Fatalf("%s via %s: %v", req.Op, id, err)
			}
			if resp.Status != wire.StatusWrongEpoch {
				t.Fatalf("%s via %s while the maps disagree: %s %q, want WrongEpoch from the replica it was relayed to",
					req.Op, id, resp.Status, resp.Value)
			}
		}
	}
	if got := slotRelays() - relays; got != 6 {
		t.Fatalf("%d relays for 6 ops while the maps disagree, want one each", got)
	}
	for _, p := range c.Shards[0] {
		if v, _, ok, err := p.Datalet.Engine("").AppendGet(nil, key); err != nil || !ok || string(v) != "v0" {
			t.Fatalf("%s holds %q %v %v: a refused write landed", p.Node.ID, v, ok, err)
		}
	}

	pairs[y].Controlet.SetMap(skew)
	const n = 40
	relays = slotRelays()
	for i := 0; i < n; i++ {
		v := []byte(fmt.Sprint("converged-", i))
		if err := cli.Put("", key, v); err != nil {
			t.Fatalf("put %d once the maps agree: %v", i, err)
		}
		if got, ok, err := cli.Get("", key); err != nil || !ok || string(got) != string(v) {
			t.Fatalf("read %d once the maps agree: %q %v %v, want %q", i, got, ok, err, v)
		}
	}
	if got := slotRelays() - relays; got != 2*n {
		t.Fatalf("%d relays for %d ops through the stale owner, want exactly one each", got, 2*n)
	}
}

// AA+SC → MS+SC → AA+SC keeps every write: the transition's new head owns
// every slot while the switch is in flight, and the third generation's
// owners take their slots from it once the switch completes.
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

	write(1)
	first := generation()
	if err := c.Transition(msSC); err != nil {
		t.Fatal(err)
	}
	write(2)
	if err := c.Transition(aaSC); err != nil {
		t.Fatal(err)
	}
	write(3)
	third := generation()
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

// Under a uniform 50 % PUT AA+SC load no controlet calls the DLM: the
// installed map, not a lock manager, names each slot's owner. The count is
// printed for review.
func TestAASCSteadyStateLockRatio(t *testing.T) {
	c := startCluster(t, Options{Mode: aaSC, Shards: 1, Replicas: 3, DisableFailover: true})
	const keys, callers, perCaller = 4096, 2, 2000
	locks0 := lockCalls()
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
			for i := 0; i < perCaller; i++ {
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
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ops, locks := callers*perCaller, lockCalls()-locks0
	t.Logf("steady-state DLM Lock calls per client op: %.4f (%d Lock calls for %d ops)", float64(locks)/float64(ops), locks, ops)
	if locks != 0 {
		t.Fatalf("%d DLM Lock calls under AA+SC load, want none", locks)
	}
}

// TestAASCMultiPutLinearizable checks every key of concurrent MultiPuts and
// Gets on shared keys under AA+SC: one writer per controlet sends raw
// OpMPut frames spanning every owner (the entry node relays the pairs of
// other owners' slots and writes all of its own as one set), a library
// client sends MultiPuts bucketed by owner, and all of them read. Each
// pair of a batch is its own write in the history; every key's history
// must be linearizable.
func TestAASCMultiPutLinearizable(t *testing.T) {
	c := startCluster(t, Options{Mode: aaSC, Shards: 1, Replicas: 3, DisableFailover: true})
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("mk%d", i)
	}
	rounds := 120
	if testing.Short() {
		rounds = 40
	}
	rec := histcheck.NewRecorder()
	var vals atomic.Uint64
	// mput writes every key once, each pair a write of its own in rec, and
	// reports the per-pair errors through send.
	mput := func(w int, send func([]wire.KV) []error) {
		pairs := make([]wire.KV, len(keys))
		refs := make([]histcheck.OpRef, len(keys))
		for i, k := range keys {
			v := fmt.Sprint(vals.Add(1))
			pairs[i] = wire.KV{Key: []byte(k), Value: []byte(v)}
			refs[i] = rec.BeginWrite(w, k, v)
		}
		for i, err := range send(pairs) {
			rec.EndWrite(refs[i], err)
		}
	}
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w, pair := range c.Shards[0] {
		raw, err := datalet.Dial(c.Net, pair.Controlet.DataAddr(), c.Codec)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		wg.Add(1)
		go func(w int, raw *datalet.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			var resp wire.Response
			for i := 0; i < rounds; i++ {
				if i%2 == 0 {
					mput(w, func(pairs []wire.KV) []error {
						errs := make([]error, len(pairs))
						err := raw.Do(&wire.Request{Op: wire.OpMPut, Pairs: pairs}, &resp)
						for j := range errs {
							switch {
							case err != nil:
								errs[j] = err
							case resp.Status != wire.StatusOK || j >= len(resp.Statuses):
								errs[j] = fmt.Errorf("mput via controlet %d: %s %s", w, resp.Status, resp.Err)
							case resp.Statuses[j] != wire.StatusOK:
								errs[j] = fmt.Errorf("mput pair %d via controlet %d: %s", j, w, resp.Statuses[j])
							}
							if errs[j] != nil && failed.Add(1) == 1 {
								t.Log(errs[j])
							}
						}
						return errs
					})
					continue
				}
				k := keys[rng.IntN(len(keys))]
				ref := rec.BeginRead(w, k)
				err := raw.Do(&wire.Request{Op: wire.OpGet, Key: []byte(k)}, &resp)
				found := resp.Status == wire.StatusOK
				if err == nil && !found && resp.Status != wire.StatusNotFound {
					err = fmt.Errorf("get via controlet %d: %s %s", w, resp.Status, resp.Err)
				}
				if err != nil {
					failed.Add(1)
				}
				rec.EndRead(ref, string(resp.Value), found, err)
			}
		}(w, raw)
	}
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		const w = 3
		rng := rand.New(rand.NewPCG(w, 1))
		for i := 0; i < rounds; i++ {
			if i%2 == 0 {
				mput(w, func(pairs []wire.KV) []error {
					errs, err := cli.MultiPut("", pairs)
					if err != nil {
						errs = make([]error, len(pairs))
						for j := range errs {
							errs[j] = err
						}
					}
					for _, e := range errs {
						if e != nil {
							failed.Add(1)
						}
					}
					return errs
				})
				continue
			}
			k := keys[rng.IntN(len(keys))]
			ref := rec.BeginRead(w, k)
			v, found, err := cli.Get("", []byte(k))
			if err != nil {
				failed.Add(1)
			}
			rec.EndRead(ref, string(v), found, err)
		}
	}()
	wg.Wait()
	// No faults are injected: every operation must have succeeded, or the
	// history below is thinner than it claims.
	if n := failed.Load(); n > 0 {
		t.Errorf("%d operations failed with no fault injected", n)
	}
	rep := histcheck.Check(rec.Ops(), histcheck.Options{MaxStates: 5_000_000})
	t.Logf("history: %d ops on %d keys; %s", rec.Len(), len(keys), rep)
	if !rep.Ok() {
		t.Fatalf("AA+SC MultiPut history is not linearizable: %s", rep)
	}
}
