package cluster

// Crash-restart nemesis tests: clusters run with Options.Durable, so every
// node owns a crash-faithful filesystem (internal/store/faultfs) and its
// engines write-ahead-log each write before acking. Crash() emulates
// kill -9 plus power loss — unsynced data vanishes, fsynced data survives —
// and Restart() reboots the node over its surviving disk image and rejoins
// it through the coordinator. The suites assert the durability contract
// end-to-end: strong modes lose no acked write across crashes, eventual
// modes reconverge, and a restarted node backfills an incremental delta
// rather than re-copying the keyspace. Failures log the seed; rerun with
// BESPOKV_NEMESIS_SEED=<seed> to replay the identical crash schedule and
// torn-write coin flips.

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/client"
	"bespokv/internal/histcheck"
	"bespokv/internal/topology"
)

// waitEvicted polls the coordinator's map until nodeID is gone from it (the
// failure detector swept the crashed node), so follow-up writes travel the
// repaired chain.
func waitEvicted(t *testing.T, c *Cluster, nodeID string) {
	t.Helper()
	admin, err := c.Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := admin.GetMap()
		if err == nil {
			present := false
			for _, shard := range m.Shards {
				for _, n := range shard.Replicas {
					if n.ID == nodeID {
						present = true
					}
				}
			}
			if !present {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s never evicted from the map", nodeID)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// restartEventually retries Restart until the coordinator accepts the
// rejoin: right after an eviction a failover epoch may still be settling,
// and the retry mirrors what a rebooting node's supervisor would do.
func restartEventually(t *testing.T, c *Cluster, shard, replica int) RejoinResult {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		reply, err := c.Restart(shard, replica)
		if err == nil {
			return RejoinResult{Pairs: reply.Pairs, Delta: reply.Delta}
		}
		if time.Now().After(deadline) {
			t.Fatalf("Restart(%d,%d): %v", shard, replica, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// RejoinResult mirrors coordinator.RejoinReply for the test helpers.
type RejoinResult struct {
	Pairs int
	Delta bool
}

// crashCase parameterizes the shared crash-nemesis driver.
type crashCase struct {
	mode   topology.Mode
	engine string
	torn   bool // crash with torn final writes
}

// runCrashNemesis is the shared crash-restart driver: unique-key writers
// hammer a durable cluster while a seeded schedule crashes replicas
// (occasionally with torn tails), waits for eviction, and reboots them over
// their surviving disks. Afterwards strong modes must serve every acked
// write; eventual modes must converge to written values.
func runCrashNemesis(t *testing.T, cc crashCase) {
	t.Helper()
	if testing.Short() {
		t.Skip("crash nemesis test in -short mode")
	}
	seed := nemesisSeed(t)
	logSeed(t, seed)
	c := startCluster(t, Options{
		Mode:             cc.mode,
		Engine:           cc.engine,
		Shards:           1,
		Replicas:         3,
		Durable:          true,
		Seed:             seed,
		HeartbeatTimeout: 400 * time.Millisecond,
	})

	rec := histcheck.NewRecorder()
	var seq, ackedN, failedN atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		cli := nemesisClient(t, c)
		wg.Add(1)
		go func(w int, cli *client.Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := seq.Add(1)
				k := fmt.Sprintf("crash-%06d", i)
				ref := rec.BeginWrite(w, k, k)
				err := cli.Put("", []byte(k), []byte(k))
				rec.EndWrite(ref, err)
				if err != nil {
					failedN.Add(1)
					// Back off while the chain is broken: spinning on fast
					// failures floods the history without adding coverage.
					time.Sleep(10 * time.Millisecond)
				} else {
					ackedN.Add(1)
					// Pace the history: the post-run checks walk every acked
					// write, and coverage comes from the crash schedule, not
					// raw op volume.
					time.Sleep(time.Millisecond)
				}
			}
		}(w, cli)
	}

	// Two seeded crash→evict→restart rounds while the workload runs. The
	// eviction wait keeps rounds deterministic: each crash is fully
	// repaired (chain shortened, writes flowing) before the reboot rejoins.
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 2; round++ {
		time.Sleep(400 * time.Millisecond)
		victim := rng.Intn(3)
		id := c.Shards[0][victim].Node.ID
		if cc.torn && rng.Intn(2) == 0 {
			t.Logf("round %d: torn-crashing %s", round, id)
			if err := c.CrashTorn(0, victim); err != nil {
				t.Fatal(err)
			}
		} else {
			t.Logf("round %d: crashing %s", round, id)
			if err := c.Crash(0, victim); err != nil {
				t.Fatal(err)
			}
		}
		waitEvicted(t, c, id)
		res := restartEventually(t, c, 0, victim)
		t.Logf("round %d: %s rejoined (%d records, delta=%v)", round, id, res.Pairs, res.Delta)
	}

	time.Sleep(500 * time.Millisecond) // settle: rejoin epochs propagate
	close(stop)
	wg.Wait()

	t.Logf("crash run: %d acked, %d failed transiently", ackedN.Load(), failedN.Load())
	if ackedN.Load() == 0 {
		t.Fatalf("seed %d: no writes succeeded during the crash run", seed)
	}

	if cc.mode.Consistency == topology.Strong {
		verifyAckedReadable(t, c, rec, seed)
	} else {
		verifyConverged(t, c, rec, seed)
	}
}

// TestCrashRestartMSSC is the core durability gate: MS+SC with the durable
// ht engine under crash/restart rounds must serve every acked write — an
// ack means the WAL fsynced, so a crash may only lose writes that were
// never acknowledged.
func TestCrashRestartMSSC(t *testing.T) {
	runCrashNemesis(t, crashCase{
		mode:   topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		engine: "ht",
	})
}

// TestCrashRestartTornLSM runs the same gate on the LSM engine with torn
// final writes: recovery must truncate the WAL's torn tail without losing
// any fsynced (acked) record.
func TestCrashRestartTornLSM(t *testing.T) {
	runCrashNemesis(t, crashCase{
		mode:   topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		engine: "lsm",
		torn:   true,
	})
}

// TestCrashRestartMSEC checks the eventual-consistency contract across
// crashes: after restarts and anti-entropy, every in-map replica agrees and
// holds only written values.
func TestCrashRestartMSEC(t *testing.T) {
	runCrashNemesis(t, crashCase{
		mode:   topology.Mode{Topology: topology.MS, Consistency: topology.Eventual},
		engine: "ht",
	})
}

// TestRejoinDeltaTransfersOnlyMissedWrites is the incremental-rejoin gate:
// a restarted replica that recovered N records from its WAL must backfill
// only the writes it missed while down, not the whole keyspace. The base
// load is 40× the delta, and the reply must confirm both the delta path and
// a transfer bounded by what was missed.
func TestRejoinDeltaTransfersOnlyMissedWrites(t *testing.T) {
	seed := nemesisSeed(t)
	logSeed(t, seed)
	c := startCluster(t, Options{
		Mode:             topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:           1,
		Replicas:         3,
		Durable:          true,
		Seed:             seed,
		HeartbeatTimeout: 400 * time.Millisecond,
	})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const base, delta = 400, 10
	for i := 0; i < base; i++ {
		k := []byte(fmt.Sprintf("base-%04d", i))
		if err := cli.Put("", k, k); err != nil {
			t.Fatal(err)
		}
	}

	victim := 2 // chain tail
	id := c.Shards[0][victim].Node.ID
	if err := c.Crash(0, victim); err != nil {
		t.Fatal(err)
	}
	waitEvicted(t, c, id)

	for i := 0; i < delta; i++ {
		k := []byte(fmt.Sprintf("delta-%04d", i))
		if err := cli.Put("", k, k); err != nil {
			t.Fatal(err)
		}
	}

	res := restartEventually(t, c, 0, victim)
	if !res.Delta {
		t.Fatalf("seed %d: rejoin used a full export, want incremental delta", seed)
	}
	// The delta may legitimately include a few extra records (writes raced
	// into the snapshot window), but must stay a small fraction of base.
	if res.Pairs < delta || res.Pairs > base/4 {
		t.Fatalf("seed %d: delta transferred %d records, want >= %d and <= %d (base %d)",
			seed, res.Pairs, delta, base/4, base)
	}
	t.Logf("rejoin transferred %d records for a %d-key miss over a %d-key base", res.Pairs, delta, base)

	// The restarted node is the new read tail: every key, old and new, must
	// be served through it.
	for i := 0; i < base; i += 37 {
		k := []byte(fmt.Sprintf("base-%04d", i))
		eventually(t, 5*time.Second, func() string {
			v, ok, err := cli.Get("", k)
			if err != nil || !ok || string(v) != string(k) {
				return fmt.Sprintf("Get(%s) = (%q,%v,%v)", k, v, ok, err)
			}
			return ""
		})
	}
	for i := 0; i < delta; i++ {
		k := []byte(fmt.Sprintf("delta-%04d", i))
		eventually(t, 5*time.Second, func() string {
			v, ok, err := cli.Get("", k)
			if err != nil || !ok || string(v) != string(k) {
				return fmt.Sprintf("Get(%s) = (%q,%v,%v)", k, v, ok, err)
			}
			return ""
		})
	}
}

// TestRejoinFallsBackToFullExport covers the automatic fallback: a node
// that crashes before making anything durable recovers an empty store (no
// watermark), so its rejoin must use the full export — and still end up
// complete.
func TestRejoinFallsBackToFullExport(t *testing.T) {
	seed := nemesisSeed(t)
	logSeed(t, seed)
	c := startCluster(t, Options{
		Mode:             topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:           1,
		Replicas:         3,
		Durable:          true,
		Seed:             seed,
		HeartbeatTimeout: 400 * time.Millisecond,
	})

	victim := 2
	id := c.Shards[0][victim].Node.ID
	if err := c.Crash(0, victim); err != nil {
		t.Fatal(err)
	}
	waitEvicted(t, c, id)

	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const n = 50
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("fb-%04d", i))
		if err := cli.Put("", k, k); err != nil {
			t.Fatal(err)
		}
	}

	res := restartEventually(t, c, 0, victim)
	if res.Delta {
		t.Fatalf("seed %d: watermark-less rejoin claimed a delta transfer", seed)
	}
	if res.Pairs < n {
		t.Fatalf("seed %d: full-export rejoin transferred %d records, want >= %d", seed, res.Pairs, n)
	}
	for i := 0; i < n; i += 7 {
		k := []byte(fmt.Sprintf("fb-%04d", i))
		eventually(t, 5*time.Second, func() string {
			v, ok, err := cli.Get("", k)
			if err != nil || !ok || string(v) != string(k) {
				return fmt.Sprintf("Get(%s) = (%q,%v,%v)", k, v, ok, err)
			}
			return ""
		})
	}
}

// TestCrashRestartLinearizable records a concurrent read/write history
// around a crash→evict→restart of the chain head under MS+SC and requires
// every key to verify linearizable — the strongest statement that
// crash-restart durability composes with the consistency protocol.
func TestCrashRestartLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("crash linearizability test in -short mode")
	}
	seed := nemesisSeed(t)
	logSeed(t, seed)
	c := startCluster(t, Options{
		Mode:             topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:           1,
		Replicas:         3,
		Durable:          true,
		Seed:             seed,
		HeartbeatTimeout: 400 * time.Millisecond,
	})

	keys := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	rec := histcheck.NewRecorder()
	var vals atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		cli := nemesisClient(t, c)
		wg.Add(1)
		go func(w int, cli *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
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
					if err != nil {
						// Failed writes record open-ended uncertainty the
						// checker must branch on; don't pile them up while
						// the chain is down.
						time.Sleep(15 * time.Millisecond)
					}
				} else {
					ref := rec.BeginRead(w, k)
					v, ok, err := cli.Get("", []byte(k))
					rec.EndRead(ref, string(v), ok, err)
				}
				time.Sleep(6 * time.Millisecond)
			}
		}(w, cli)
	}

	// Crash the head mid-workload; failover promotes the next replica, the
	// reboot rejoins as tail.
	time.Sleep(300 * time.Millisecond)
	head := c.Shards[0][0].Node.ID
	if err := c.Crash(0, 0); err != nil {
		t.Fatal(err)
	}
	waitEvicted(t, c, head)
	res := restartEventually(t, c, 0, 0)
	t.Logf("head %s rejoined (%d records, delta=%v)", head, res.Pairs, res.Delta)

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	rep := histcheck.Check(rec.Ops(), histcheck.Options{MaxStates: 1_000_000})
	t.Logf("history: %d ops recorded; %s", len(rec.Ops()), rep)
	for _, kr := range rep.Keys {
		switch kr.Outcome {
		case histcheck.NonLinearizable:
			t.Fatalf("seed %d: crash-restart broke linearizability: %s", seed, rep)
		case histcheck.Unknown:
			t.Logf("seed %d: key %q verdict unknown (%d ops, budget exhausted)", seed, kr.Key, kr.Ops)
		}
	}
}

// TestCrashRestartOverTCPReusesSocketPath is the crash-restart flow in the
// tcp layout, where each controlet reaches its datalet over a socket file
// named after the node. kill -9 leaves that file behind (the in-process Crash
// closes the listener, which unlinks it, so the test plants the leftover
// itself); the restarted datalet must take the same path over, the restarted
// controlet's local pool must dial it there, and what the node serves as the
// new read tail proves the link works.
func TestCrashRestartOverTCPReusesSocketPath(t *testing.T) {
	seed := nemesisSeed(t)
	logSeed(t, seed)
	c := startCluster(t, Options{
		NetworkName:      "tcp",
		Mode:             topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:           1,
		Replicas:         3,
		Durable:          true,
		Seed:             seed,
		HeartbeatTimeout: 400 * time.Millisecond,
	})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const keys = 50
	put := func(prefix string) {
		for i := 0; i < keys; i++ {
			k := []byte(fmt.Sprintf("%s-%03d", prefix, i))
			if err := cli.Put("", k, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	put("before")

	victim := 2 // chain tail
	old := c.Shards[0][victim]
	sock := old.Datalet.LocalAddr()
	if sock == "" {
		t.Fatal("tcp cluster without a local socket link")
	}
	if err := c.Crash(0, victim); err != nil {
		t.Fatal(err)
	}
	stale, err := net.ListenUnix("unix", &net.UnixAddr{Name: sock, Net: "unix"})
	if err != nil {
		t.Fatalf("socket path not free after the crash: %v", err)
	}
	stale.SetUnlinkOnClose(false)
	stale.Close()
	waitEvicted(t, c, old.Node.ID)
	put("during")

	restartEventually(t, c, 0, victim)
	fresh := c.Shards[0][victim]
	if got := fresh.Datalet.LocalAddr(); got != sock {
		t.Fatalf("restarted datalet listens on %q, want the old path %q", got, sock)
	}
	if got, want := localLinkOf(fresh), "unix:"+sock; got != want {
		t.Fatalf("restarted controlet's local link = %v, want %v", got, want)
	}
	for _, prefix := range []string{"before", "during"} {
		for i := 0; i < keys; i += 7 {
			k := []byte(fmt.Sprintf("%s-%03d", prefix, i))
			eventually(t, 5*time.Second, func() string {
				v, ok, err := cli.Get("", k)
				if err != nil || !ok || string(v) != string(k) {
					return fmt.Sprintf("Get(%s) = (%q,%v,%v)", k, v, ok, err)
				}
				return ""
			})
		}
	}
	if e := fresh.Datalet.Engine(""); e.Len() != 2*keys {
		t.Fatalf("restarted datalet holds %d keys, want %d", e.Len(), 2*keys)
	}
}
