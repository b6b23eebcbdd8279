package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

var allModes = []topology.Mode{
	{Topology: topology.MS, Consistency: topology.Strong},
	{Topology: topology.MS, Consistency: topology.Eventual},
	{Topology: topology.AA, Consistency: topology.Strong},
	{Topology: topology.AA, Consistency: topology.Eventual},
}

func startCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// waitConverged polls until every live replica's datalet reports the same
// number of live keys in the default table.
func waitConverged(t *testing.T, c *Cluster, shard int, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for _, p := range c.Shards[shard] {
			if p.Killed() {
				continue
			}
			e := p.Datalet.Engine("")
			if e == nil || e.Len() != want {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			var got []int
			for _, p := range c.Shards[shard] {
				if !p.Killed() {
					got = append(got, p.Datalet.Engine("").Len())
				}
			}
			t.Fatalf("replicas never converged to %d keys: %v", want, got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// eventually retries fn (returning a failure description or "") until it
// succeeds or the deadline passes. Under eventual consistency reads from
// arbitrary replicas legitimately lag acknowledged writes, so correctness
// tests assert convergence, not read-your-writes.
func eventually(t *testing.T, d time.Duration, fn func() string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		problem := fn()
		if problem == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(problem)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOptionsDefaults: the zero Options deploy one shard of three MS+SC
// replicas on the hash-table engine.
func TestOptionsDefaults(t *testing.T) {
	var o Options
	if err := o.defaults(); err != nil {
		t.Fatal(err)
	}
	if o.Shards != 1 || o.Replicas != 3 || o.Mode != msSC || o.Engine != "ht" {
		t.Fatalf("zero Options default to %d×%d %s on %q", o.Shards, o.Replicas, o.Mode, o.Engine)
	}
}

func TestPutGetDelAllModes(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c := startCluster(t, Options{Mode: mode, Shards: 2, Replicas: 3, DisableFailover: true})
			cli, err := c.Client()
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("key-%03d", i))
				if err := cli.Put("", k, []byte(fmt.Sprintf("val-%03d", i))); err != nil {
					t.Fatalf("Put(%s): %v", k, err)
				}
			}
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("key-%03d", i))
				want := fmt.Sprintf("val-%03d", i)
				eventually(t, 5*time.Second, func() string {
					v, ok, err := cli.Get("", k)
					if err != nil || !ok || string(v) != want {
						return fmt.Sprintf("Get(%s) = (%q,%v,%v)", k, v, ok, err)
					}
					return ""
				})
			}
			found, err := cli.Del("", []byte("key-000"))
			if err != nil || !found {
				t.Fatalf("Del: found=%v err=%v", found, err)
			}
			eventually(t, 5*time.Second, func() string {
				if _, ok, _ := cli.Get("", []byte("key-000")); ok {
					return "deleted key visible"
				}
				return ""
			})
			if _, ok, _ := cli.Get("", []byte("never")); ok {
				t.Fatal("missing key visible")
			}
		})
	}
}

func TestReplicasConvergeAllModes(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c := startCluster(t, Options{Mode: mode, Shards: 1, Replicas: 3, DisableFailover: true})
			cli, err := c.Client()
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			const n = 100
			for i := 0; i < n; i++ {
				k := []byte(fmt.Sprintf("key-%03d", i))
				if err := cli.Put("", k, k); err != nil {
					t.Fatal(err)
				}
			}
			waitConverged(t, c, 0, n)
			// Every replica holds identical values.
			for i := 0; i < n; i += 13 {
				k := []byte(fmt.Sprintf("key-%03d", i))
				for ri, p := range c.Shards[0] {
					v, _, ok, err := p.Datalet.Engine("").Get(k)
					if err != nil || !ok || !bytes.Equal(v, k) {
						t.Fatalf("replica %d: Get(%s) = (%q,%v,%v)", ri, k, v, ok, err)
					}
				}
			}
		})
	}
}

// TestAAECConcurrentWritersConverge is the Dynomite conflict scenario
// (§C-C): two different masters write the same key concurrently; the
// shared log orders them, so every replica must converge to the same value.
func TestAAECConcurrentWritersConverge(t *testing.T) {
	c := startCluster(t, Options{
		Mode:            topology.Mode{Topology: topology.AA, Consistency: topology.Eventual},
		Shards:          1,
		Replicas:        3,
		DisableFailover: true,
	})
	cli1, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli1.Close()
	cli2, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()

	var wg sync.WaitGroup
	for w, cli := range []interface {
		Put(string, []byte, []byte) error
	}{cli1, cli2} {
		wg.Add(1)
		go func(w int, cli interface {
			Put(string, []byte, []byte) error
		}) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = cli.Put("", []byte("contended"), []byte(fmt.Sprintf("writer-%d-%d", w, i)))
			}
		}(w, cli)
	}
	wg.Wait()

	// All replicas converge to one value.
	deadline := time.Now().Add(10 * time.Second)
	for {
		vals := map[string]bool{}
		for _, p := range c.Shards[0] {
			v, _, ok, err := p.Datalet.Engine("").Get([]byte("contended"))
			if err != nil || !ok {
				vals["missing"] = true
				continue
			}
			vals[string(v)] = true
		}
		if len(vals) == 1 {
			if vals["missing"] {
				t.Fatal("key missing everywhere")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas diverged: %v", vals)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAAECShardsStayIsolated guards against cross-shard contamination via
// the shared log: every shard's appliers consume the same total order but
// must apply only their own shard's stream.
func TestAAECShardsStayIsolated(t *testing.T) {
	c := startCluster(t, Options{
		Mode:            topology.Mode{Topology: topology.AA, Consistency: topology.Eventual},
		Shards:          2,
		Replicas:        3,
		DisableFailover: true,
	})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const n = 100
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		if err := cli.Put("", k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Each key must exist on exactly one shard's replicas: total live
	// pairs across all datalets == n × replicas, not n × all nodes.
	eventually(t, 10*time.Second, func() string {
		total := 0
		for _, pairs := range c.Shards {
			for _, p := range pairs {
				total += p.Datalet.Engine("").Len()
			}
		}
		if total != n*3 {
			return fmt.Sprintf("total pairs %d, want %d (shards leaking through the shared log?)", total, n*3)
		}
		return ""
	})
}

func TestPerRequestConsistency(t *testing.T) {
	c := startCluster(t, Options{
		Mode:            topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:          1,
		Replicas:        3,
		DisableFailover: true,
	})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Put("", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Strong read (default under MS+SC).
	v, ok, err := cli.GetLevel("", []byte("k"), wire.LevelStrong)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("strong get: (%q,%v,%v)", v, ok, err)
	}
	// Eventual read is served by any replica; under synchronous chain
	// replication every replica already has the value.
	for i := 0; i < 10; i++ {
		v, ok, err = cli.GetLevel("", []byte("k"), wire.LevelEventual)
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("eventual get: (%q,%v,%v)", v, ok, err)
		}
	}
}

func TestRangeQueryAcrossShards(t *testing.T) {
	c := startCluster(t, Options{
		Mode:            topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:          4,
		Replicas:        2,
		Engine:          "btree",
		Partitioner:     topology.RangePartitioner,
		DisableFailover: true,
	})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Keys spread across the whole byte space so every shard owns some.
	var want []string
	for i := 0; i < 256; i += 3 {
		k := string([]byte{byte(i)}) + fmt.Sprintf("-key-%03d", i)
		if err := cli.Put("", []byte(k), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}
	got, err := cli.GetRange("", nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("range scan returned %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if string(got[i].Key) != want[i] {
			t.Fatalf("range scan [%d] = %q, want %q", i, got[i].Key, want[i])
		}
	}
	// Bounded sub-range with limit.
	got, err = cli.GetRange("", []byte{0x40}, []byte{0xc0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("limited scan returned %d", len(got))
	}
	for _, kv := range got {
		if kv.Key[0] < 0x40 || kv.Key[0] >= 0xc0 {
			t.Fatalf("key %q outside scan range", kv.Key)
		}
	}
}

func TestPolyglotPersistence(t *testing.T) {
	c := startCluster(t, Options{
		Mode:             topology.Mode{Topology: topology.MS, Consistency: topology.Eventual},
		Shards:           1,
		Replicas:         3,
		EnginesByReplica: []string{"lsm", "btree", "applog"},
		DisableFailover:  true,
	})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const n = 200
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if err := cli.Put("", k, k); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, c, 0, n)
	for ri, p := range c.Shards[0] {
		e := p.Datalet.Engine("")
		wantName := []string{"lsm", "btree", "applog"}[ri]
		if e.Name() != wantName {
			t.Fatalf("replica %d engine = %s, want %s", ri, e.Name(), wantName)
		}
	}

	// Start refuses an engine it does not know, whether named for every
	// replica or for one.
	for _, opts := range []Options{
		{Engine: "rocksdb"},
		{EnginesByReplica: []string{"ht", "rocksdb", "btree"}},
	} {
		opts.Logf = t.Logf
		bad, err := Start(opts)
		if err == nil {
			bad.Close()
			t.Fatalf("Start(Engine %q, EnginesByReplica %q) accepted an unknown engine", opts.Engine, opts.EnginesByReplica)
		}
		if !strings.Contains(err.Error(), `"rocksdb"`) {
			t.Fatalf("refusal does not name the engine: %v", err)
		}
	}
}

func TestTextProtocolDatalets(t *testing.T) {
	c := startCluster(t, Options{
		Mode:             topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		Shards:           1,
		Replicas:         3,
		DataletCodecName: "text",
		DisableFailover:  true,
	})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Put("", []byte("k"), []byte("tRedis-value")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cli.Get("", []byte("k"))
	if err != nil || !ok || string(v) != "tRedis-value" {
		t.Fatalf("get through text datalets: (%q,%v,%v)", v, ok, err)
	}
}

func TestTables(t *testing.T) {
	c := startCluster(t, Options{Shards: 2, Replicas: 2, DisableFailover: true})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.CreateTable("jobs"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Put("jobs", []byte("j1"), []byte("running")); err != nil {
		t.Fatal(err)
	}
	if err := cli.Put("", []byte("j1"), []byte("default")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cli.Get("jobs", []byte("j1"))
	if err != nil || !ok || string(v) != "running" {
		t.Fatalf("tables not isolated: (%q,%v,%v)", v, ok, err)
	}
	if err := cli.DeleteTable("jobs"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cli.Get("jobs", []byte("j1")); ok {
		t.Fatal("dropped table still serves")
	}
}

func TestConcurrentClientsAllModes(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c := startCluster(t, Options{Mode: mode, Shards: 2, Replicas: 3, DisableFailover: true})
			const workers = 4
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cli, err := c.Client()
					if err != nil {
						errCh <- err
						return
					}
					defer cli.Close()
					for i := 0; i < 50; i++ {
						k := []byte(fmt.Sprintf("w%d-key-%03d", w, i))
						if err := cli.Put("", k, k); err != nil {
							errCh <- fmt.Errorf("w%d put: %w", w, err)
							return
						}
						// EC modes don't promise read-your-writes from
						// arbitrary replicas; poll briefly.
						deadline := time.Now().Add(5 * time.Second)
						for {
							v, ok, err := cli.Get("", k)
							if err == nil && ok && bytes.Equal(v, k) {
								break
							}
							if time.Now().After(deadline) {
								errCh <- fmt.Errorf("w%d get(%s): (%q,%v,%v)", w, k, v, ok, err)
								return
							}
							time.Sleep(5 * time.Millisecond)
						}
					}
				}(w)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
		})
	}
}
