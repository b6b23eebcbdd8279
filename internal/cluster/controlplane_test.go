package cluster

// Control-plane nemesis suite (`make rsm`): the acceptance proof for the
// replicated control plane. A 3-member coordinator/DLM/sequencer control
// plane is killed and partitioned at its current leader while an MS+SC
// workload runs; the checks are the tentpole's contract — zero acked-write
// loss, a linearizable history, and re-election plus resumed control-plane
// progress within a bounded number of election timeouts.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/client"
	"bespokv/internal/coordinator"
	"bespokv/internal/histcheck"
	"bespokv/internal/topology"
)

// ctlElectionTimeout is the control groups' election timeout in this
// suite; re-election bounds below are multiples of it.
const ctlElectionTimeout = 150 * time.Millisecond

// electionBound is the re-election budget: generous for CI noise, still a
// small constant number of election timeouts (typical observed is 2-3).
const electionBound = 20 * ctlElectionTimeout

func replicatedOpts() Options {
	return Options{
		Mode:                   topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:                 2,
		Replicas:               3,
		ReplicatedControl:      3,
		ControlElectionTimeout: ctlElectionTimeout,
		HeartbeatTimeout:       800 * time.Millisecond,
	}
}

// progressBound bounds how long a control mutation may take to commit
// again after a failover. Re-election itself is fast (electionBound); the
// extra headroom is for the probing client, which may burn a call timeout
// or two discovering that its connection or a stale leader hint points
// into the fault before rotating to the new leader.
const progressBound = 15 * time.Second

// probeAdmin opens the control-plane liveness probe's client: short call
// timeout so a blackholed member costs one second, not ten.
func probeAdmin(t *testing.T, c *Cluster) *coordinator.Client {
	t.Helper()
	admin, err := c.Admin()
	if err != nil {
		t.Fatal(err)
	}
	admin.SetCallTimeout(time.Second)
	t.Cleanup(func() { admin.Close() })
	return admin
}

// waitControlProgress asserts resumed control-plane progress: a mutation
// (standby registration with a throwaway node) commits through the current
// leader within progressBound. Data-node kills never happen in this suite,
// so the junk standbys are never claimed.
func waitControlProgress(t *testing.T, admin *coordinator.Client, seed int64, tag string) {
	t.Helper()
	started := time.Now()
	deadline := started.Add(progressBound)
	var err error
	for i := 0; ; i++ {
		id := fmt.Sprintf("probe-%s-%d", tag, i)
		err = admin.RegisterStandby(topology.Node{
			ID: id, ControletAddr: id + "-c", DataletAddr: id + "-d",
		})
		if err == nil {
			t.Logf("control plane resumed progress after %v", time.Since(started))
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: control plane made no progress within %v: %v", seed, progressBound, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestControlPlaneLeaderKill kills the coordinator leader (the process,
// not a link) under continuous MS+SC load: survivors must re-elect within
// electionBound, control mutations must resume, and no acked write may be
// lost.
func TestControlPlaneLeaderKill(t *testing.T) {
	if testing.Short() {
		t.Skip("control-plane nemesis test in -short mode")
	}
	seed := nemesisSeed(t)
	logSeed(t, seed)
	c, _ := startFaultCluster(t, seed, replicatedOpts())

	rec := histcheck.NewRecorder()
	var seq, acked atomic.Uint64
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
				k := fmt.Sprintf("ctlkill-%06d", seq.Add(1))
				ref := rec.BeginWrite(w, k, k)
				err := cli.Put("", []byte(k), []byte(k))
				rec.EndWrite(ref, err)
				if err == nil {
					acked.Add(1)
				}
			}
		}(w, cli)
	}

	time.Sleep(300 * time.Millisecond)
	dead, err := c.KillCoordLeader()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	killedAt := time.Now()
	t.Logf("killed coordinator leader %s", dead)

	// Bounded unavailability: a survivor leads within electionBound.
	next, err := c.WaitCoordLeader(electionBound)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if next == dead {
		t.Fatalf("seed %d: dead member %s still leads", seed, dead)
	}
	t.Logf("re-elected %s after %v (bound %v)", next, time.Since(killedAt), electionBound)

	// Resumed control-plane progress: a replicated mutation commits.
	waitControlProgress(t, probeAdmin(t, c), seed, "kill")

	// Data plane kept making progress throughout; let it run a beat past
	// the failover, then check the strong contract.
	ackedAtFailover := acked.Load()
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if acked.Load() == ackedAtFailover {
		t.Fatalf("seed %d: no writes acked after the coordinator leader kill", seed)
	}
	t.Logf("%d writes acked (%d after failover)", acked.Load(), acked.Load()-ackedAtFailover)
	verifyAckedReadable(t, c, rec, seed)
}

// TestControlPlaneLeaderPartition isolates the coordinator leader on the
// network (its process stays up) under a concurrent read/write MS+SC
// history: the majority side must elect a replacement, the deposed leader
// must step down rather than split-brain the map, and after heal the
// recorded history must be linearizable.
func TestControlPlaneLeaderPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("control-plane nemesis test in -short mode")
	}
	seed := nemesisSeed(t)
	logSeed(t, seed)
	c, f := startFaultCluster(t, seed, replicatedOpts())

	lead, err := c.WaitCoordLeader(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	keys := []string{"cp0", "cp1", "cp2", "cp3", "cp4", "cp5", "cp6", "cp7"}
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
					rec.EndWrite(ref, cli.Put("", []byte(k), []byte(v)))
				} else {
					ref := rec.BeginRead(w, k)
					v, ok, err := cli.Get("", []byte(k))
					rec.EndRead(ref, string(v), ok, err)
				}
				time.Sleep(3 * time.Millisecond)
			}
		}(w, cli)
	}

	time.Sleep(300 * time.Millisecond)
	t.Logf("isolating coordinator leader %s", lead)
	f.Isolate(lead)
	isolatedAt := time.Now()

	// The majority elects a replacement within the bound. The deposed
	// minority leader may briefly still think it leads (check-quorum
	// deposes it within ~2 election timeouts); that is harmless — it has
	// no quorum, so nothing it accepts can commit.
	var next string
	deadline := time.Now().Add(electionBound)
	for {
		if id, s := c.CoordLeader(); s != nil && id != lead {
			next = id
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: no majority-side leader within %v of isolating %s", seed, electionBound, lead)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("majority re-elected %s after %v", next, time.Since(isolatedAt))

	// Progress on the majority side while the old leader is still cut off.
	waitControlProgress(t, probeAdmin(t, c), seed, "part")

	// Check-quorum: the isolated ex-leader must step down, not linger as a
	// second "leader" (it could otherwise serve stale leader-only reads).
	var old *coordinator.Server
	for i, id := range c.coordIDs {
		if id == lead {
			old = c.Coords[i]
		}
	}
	deadline = time.Now().Add(electionBound)
	for {
		if !old.IsLeader() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: isolated leader %s never stepped down", seed, lead)
		}
		time.Sleep(10 * time.Millisecond)
	}

	f.Heal()
	time.Sleep(400 * time.Millisecond) // settle: healed member rejoins as follower
	close(stop)
	wg.Wait()

	ops := rec.Ops()
	rep := histcheck.Check(ops, histcheck.Options{MaxStates: 5_000_000})
	t.Logf("history: %d ops recorded; %s", len(ops), rep)
	for _, kr := range rep.Keys {
		switch kr.Outcome {
		case histcheck.NonLinearizable:
			t.Fatalf("seed %d: coordinator-leader partition broke linearizability: %s", seed, rep)
		case histcheck.Unknown:
			t.Logf("seed %d: key %q verdict unknown (%d ops, budget exhausted)", seed, kr.Key, kr.Ops)
		}
	}
	verifyAckedReadable(t, c, rec, seed)
}

// waitAcked polls acked until it reaches n, failing — with the wait's name,
// the last value seen and how long after from it gave up — once budget has
// passed since from.
func waitAcked(t *testing.T, seed int64, wait string, acked *atomic.Uint64, n uint64, from time.Time, budget time.Duration) {
	t.Helper()
	for acked.Load() < n {
		if time.Since(from) > budget {
			t.Fatalf("seed %d: wait %q expired: acked %d, want >= %d, %v after it began (budget %v)",
				seed, wait, acked.Load(), n, time.Since(from), budget)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestControlPlaneDLMAndSequencerFailover drives the two other control
// services through a leader kill each: an AA+SC workload (per-key DLM
// leases) and an AA+EC workload (shared-log sequencing) both keep their
// contracts when the respective service's leader dies mid-run. The leader
// dies once the workload has 50 writes acked, and a write must be acked
// within a fixed budget of the new leader being seen.
func TestControlPlaneDLMAndSequencerFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("control-plane nemesis test in -short mode")
	}
	seed := nemesisSeed(t)
	logSeed(t, seed)

	t.Run("dlm", func(t *testing.T) {
		opts := replicatedOpts()
		opts.Mode = topology.Mode{Topology: topology.AA, Consistency: topology.Strong}
		opts.Shards = 1
		c, _ := startFaultCluster(t, seed, opts)

		rec := histcheck.NewRecorder()
		var seq, acked atomic.Uint64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		// Stops the writers, also when a wait below fails.
		halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
		defer halt()
		for w := 0; w < 2; w++ {
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
					k := fmt.Sprintf("dlmkill-%06d", seq.Add(1))
					ref := rec.BeginWrite(w, k, k)
					err := cli.Put("", []byte(k), []byte(k))
					rec.EndWrite(ref, err)
					if err == nil {
						acked.Add(1)
					}
				}
			}(w, cli)
		}

		waitAcked(t, seed, "50 writes acked before the DLM leader kill", &acked, 50, time.Now(), 10*time.Second)
		for i, s := range c.DLMs {
			if s.IsLeader() {
				t.Logf("killing DLM leader %s", c.dlmIDs[i])
				_ = s.Close()
				break
			}
		}
		deadline := time.Now().Add(electionBound)
		for {
			live := false
			for _, s := range c.DLMs {
				if s.IsLeader() {
					live = true
				}
			}
			if live {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: no DLM leader within %v of the kill", seed, electionBound)
			}
			time.Sleep(10 * time.Millisecond)
		}
		elected, ackedAtFailover := time.Now(), acked.Load()
		waitAcked(t, seed, "a write acked after the DLM leader kill", &acked, ackedAtFailover+1, elected, 500*time.Millisecond)
		halt()
		verifyAckedReadable(t, c, rec, seed)
	})

	t.Run("sequencer", func(t *testing.T) {
		opts := replicatedOpts()
		opts.Mode = topology.Mode{Topology: topology.AA, Consistency: topology.Eventual}
		opts.Shards = 1
		c, _ := startFaultCluster(t, seed, opts)

		rec := histcheck.NewRecorder()
		var seq, acked atomic.Uint64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		// Stops the writers, also when a wait below fails.
		halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
		defer halt()
		for w := 0; w < 2; w++ {
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
					k := fmt.Sprintf("seqkill-%06d", seq.Add(1))
					ref := rec.BeginWrite(w, k, k)
					err := cli.Put("", []byte(k), []byte(k))
					rec.EndWrite(ref, err)
					if err == nil {
						acked.Add(1)
					}
				}
			}(w, cli)
		}

		waitAcked(t, seed, "50 writes acked before the sequencer leader kill", &acked, 50, time.Now(), 10*time.Second)
		for i, s := range c.Logs {
			if s.IsLeader() {
				t.Logf("killing sequencer leader %s", c.logIDs[i])
				_ = s.Close()
				break
			}
		}
		deadline := time.Now().Add(electionBound)
		for {
			live := false
			for _, s := range c.Logs {
				if s.IsLeader() {
					live = true
				}
			}
			if live {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: no sequencer leader within %v of the kill", seed, electionBound)
			}
			time.Sleep(10 * time.Millisecond)
		}
		elected, ackedAtFailover := time.Now(), acked.Load()
		waitAcked(t, seed, "a write acked after the sequencer leader kill", &acked, ackedAtFailover+1, elected, 700*time.Millisecond)
		halt()
		// AA+EC contract: replicas converge to written values.
		verifyConverged(t, c, rec, seed)
	})
}
