package cluster

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/client"
	"bespokv/internal/topology"
)

// migLoad drives continuous writes and strong reads against cli-backed
// clients while a migration runs. Each key carries a monotonically
// increasing counter value; acked[i] records the highest counter the
// writers saw acknowledged, so readers (and the final sweep) can assert
// that no acked write is ever lost or rolled back.
type migLoad struct {
	t      *testing.T
	c      *Cluster
	keys   [][]byte
	acked  []atomic.Int64
	stopCh chan struct{}
	wg     sync.WaitGroup
	errs   atomic.Int64
}

func startMigLoad(t *testing.T, c *Cluster, keys [][]byte, writers, readers int) *migLoad {
	t.Helper()
	l := &migLoad{t: t, c: c, keys: keys, acked: make([]atomic.Int64, len(keys)), stopCh: make(chan struct{})}
	// Load clients get a retry budget that rides out the cutover barrier:
	// the window is milliseconds of real work, but on a starved CI box
	// (GOMAXPROCS=1) scheduling alone stretches every hop, so the budget
	// is seconds. Unthrottled busy-loop clients would starve the migration
	// itself on one core, so each op is lightly paced.
	const loadRetries, loadBackoff = 30, 10 * time.Millisecond
	for w := 0; w < writers; w++ {
		cli, err := c.ClientConfig(client.Config{Retries: loadRetries, RetryBackoff: loadBackoff})
		if err != nil {
			t.Fatal(err)
		}
		l.wg.Add(1)
		go func(w int) {
			defer l.wg.Done()
			defer cli.Close()
			n := int64(0)
			for {
				select {
				case <-l.stopCh:
					return
				default:
				}
				n++
				for i := w; i < len(keys); i += writers {
					if err := cli.Put("", keys[i], []byte(strconv.FormatInt(n, 10))); err != nil {
						l.errs.Add(1)
						l.t.Errorf("write %s during migration: %v", keys[i], err)
						return
					}
					l.acked[i].Store(n)
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		cli, err := c.ClientConfig(client.Config{Retries: loadRetries, RetryBackoff: loadBackoff})
		if err != nil {
			t.Fatal(err)
		}
		l.wg.Add(1)
		go func(seed int64) {
			defer l.wg.Done()
			defer cli.Close()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-l.stopCh:
					return
				default:
				}
				i := rng.Intn(len(l.keys))
				before := l.acked[i].Load()
				v, ok, err := cli.Get("", l.keys[i])
				if err != nil {
					l.errs.Add(1)
					l.t.Errorf("read %s during migration: %v", l.keys[i], err)
					return
				}
				if before == 0 {
					continue // key not necessarily written yet
				}
				got, perr := strconv.ParseInt(string(v), 10, 64)
				if !ok || perr != nil || got < before {
					l.errs.Add(1)
					l.t.Errorf("stale read %s: got (%q,%v), acked counter was %d", l.keys[i], v, ok, before)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(int64(r))
	}
	return l
}

func (l *migLoad) stop() {
	close(l.stopCh)
	l.wg.Wait()
}

// sweep asserts every key reads back at least its last acked counter —
// i.e. no acked write was lost during the resize.
func (l *migLoad) sweep(t *testing.T) {
	t.Helper()
	cli, err := l.c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i, k := range l.keys {
		want := l.acked[i].Load()
		v, ok, err := cli.Get("", k)
		if err != nil || !ok {
			t.Fatalf("key %s unreadable after migration: (%v,%v)", k, ok, err)
		}
		got, perr := strconv.ParseInt(string(v), 10, 64)
		if perr != nil || got < want {
			t.Fatalf("key %s rolled back after migration: got %q, acked counter was %d", k, v, want)
		}
	}
}

// TestJoinNodeUnderLoad is the ISSUE acceptance scenario: a 3-shard MS+SC
// cluster under continuous read/write load grows to 4 shards via JoinNode.
// Every key must stay readable with its latest acked value during and
// after the cutover, and roughly 1/n of the keyspace must have moved.
func TestJoinNodeUnderLoad(t *testing.T) {
	c := startCluster(t, Options{
		Mode:            topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:          3,
		Replicas:        2,
		DisableFailover: true,
	})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const nKeys = 600
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		if err := cli.Put("", keys[i], []byte("0")); err != nil {
			t.Fatal(err)
		}
	}

	load := startMigLoad(t, c, keys, 3, 2)
	time.Sleep(100 * time.Millisecond) // let the load ramp before resizing

	if err := c.JoinNode(0); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}

	time.Sleep(100 * time.Millisecond) // keep load running past the cutover
	load.stop()
	if load.errs.Load() > 0 {
		t.Fatalf("%d client operations failed during migration", load.errs.Load())
	}
	load.sweep(t)

	admin, err := c.Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	m, err := admin.GetMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 4 {
		t.Fatalf("map has %d shards after join, want 4", len(m.Shards))
	}
	st, err := admin.MigrationStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.Active || st.Run == nil || st.Run.Phase != "done" || st.Run.Err != "" {
		t.Fatalf("migration did not finish cleanly: %+v", st)
	}
	// Hash-proportional: the newcomer takes ~1/4 of the keyspace. Allow a
	// wide band — consistent hashing is only statistically uniform.
	if st.Run.KeysMoved < nKeys/10 || st.Run.KeysMoved > 2*nKeys/3 {
		t.Fatalf("moved %d of %d keys, want roughly 1/4", st.Run.KeysMoved, nKeys)
	}
	t.Logf("join moved %d/%d keys (%d bytes), GCed %d",
		st.Run.KeysMoved, nKeys, st.Run.BytesMoved, st.Run.KeysGCed)
}

// TestDrainNodeUnderLoad shrinks a 4-shard cluster back to 3 under the
// same load harness: the drained shard's keyspace spreads over the
// survivors with no acked write lost.
func TestDrainNodeUnderLoad(t *testing.T) {
	c := startCluster(t, Options{
		Mode:            topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:          4,
		Replicas:        2,
		DisableFailover: true,
	})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const nKeys = 400
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		if err := cli.Put("", keys[i], []byte("0")); err != nil {
			t.Fatal(err)
		}
	}

	load := startMigLoad(t, c, keys, 2, 2)
	time.Sleep(100 * time.Millisecond)

	if err := c.DrainNode(3); err != nil {
		t.Fatalf("DrainNode: %v", err)
	}

	time.Sleep(100 * time.Millisecond)
	load.stop()
	if load.errs.Load() > 0 {
		t.Fatalf("%d client operations failed during migration", load.errs.Load())
	}
	load.sweep(t)

	admin, err := c.Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	m, err := admin.GetMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 3 {
		t.Fatalf("map has %d shards after drain, want 3", len(m.Shards))
	}
	st, err := admin.MigrationStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.Active || st.Run == nil || st.Run.Phase != "done" || st.Run.Err != "" {
		t.Fatalf("migration did not finish cleanly: %+v", st)
	}
	if st.Run.KeysMoved < nKeys/10 || st.Run.KeysMoved > 2*nKeys/3 {
		t.Fatalf("moved %d of %d keys, want roughly 1/4", st.Run.KeysMoved, nKeys)
	}
}

// TestJoinNodeAAEC exercises the version-floor path: under AA+EC the
// shared-log offset assigns versions, so keys migrated from a long-lived
// source stream carry versions far ahead of the newcomer's fresh stream.
// The floor record must lift the new shard's version clock so that
// post-migration writes beat the migrated snapshot under LWW.
func TestJoinNodeAAEC(t *testing.T) {
	c := startCluster(t, Options{
		Mode:            topology.Mode{Topology: topology.AA, Consistency: topology.Eventual},
		Shards:          2,
		Replicas:        2,
		DisableFailover: true,
	})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Overwrite each key several times to inflate the source streams'
	// offsets (and therefore the migrated versions).
	const nKeys = 200
	keys := make([][]byte, nKeys)
	for round := 0; round < 3; round++ {
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%04d", i))
			if err := cli.Put("", keys[i], []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}

	if err := c.JoinNode(0); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}

	// Every key must still read its last pre-migration value (eventual
	// reads can lag, so converge).
	for _, k := range keys {
		k := k
		eventually(t, 10*time.Second, func() string {
			v, ok, err := cli.Get("", k)
			if err != nil || !ok || string(v) != "r2" {
				return fmt.Sprintf("key %s after join: (%q,%v,%v)", k, v, ok, err)
			}
			return ""
		})
	}
	// Post-migration writes must win over the migrated high versions on
	// the new shard — this is exactly what the floor record guarantees.
	for _, k := range keys {
		if err := cli.Put("", k, []byte("final")); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		k := k
		eventually(t, 10*time.Second, func() string {
			v, ok, err := cli.Get("", k)
			if err != nil || !ok || string(v) != "final" {
				return fmt.Sprintf("post-join write lost on %s: (%q,%v,%v)", k, v, ok, err)
			}
			return ""
		})
	}
}
