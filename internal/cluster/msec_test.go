package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bespokv/internal/client"
	"bespokv/internal/metrics"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
	"bespokv/internal/workload"
)

var msecMode = topology.Mode{Topology: topology.MS, Consistency: topology.Eventual}

// TestMSECMultiPutConverges: a seeded mix of MultiPuts (a key repeated
// inside a batch among them), Puts and Dels over two tables, from two
// clients, leaves every slave's datalet equal to the master's once
// propagation has caught up — the frames a slave is sent carry runs of
// queued writes, and the runs must apply as the writes did.
func TestMSECMultiPutConverges(t *testing.T) {
	c := startCluster(t, Options{Mode: msecMode, Shards: 1, Replicas: 3, DisableFailover: true})
	tables := []string{"", "t"}
	keys := make([][]byte, 24)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("mk%02d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		cli, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if w == 0 {
			if err := cli.CreateTable("t"); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func(w int, cli *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(49 + w)))
			for i := 0; i < 150; i++ {
				table, key := tables[rng.Intn(len(tables))], keys[rng.Intn(len(keys))]
				value := []byte(fmt.Sprintf("w%d-%d", w, i))
				switch n := rng.Intn(10); {
				case n < 5:
					batch := []wire.KV{{Key: key, Value: value}}
					for j := 1; j < 8; j++ {
						batch = append(batch, wire.KV{Key: keys[rng.Intn(len(keys))], Value: []byte(fmt.Sprintf("%s-%d", value, j))})
					}
					batch = append(batch, wire.KV{Key: key, Value: append(value, '!')}) // the batch's last write of key
					errs, err := cli.MultiPut(table, batch)
					if err == nil {
						for _, e := range errs {
							if err == nil {
								err = e
							}
						}
					}
					if err != nil {
						t.Errorf("client %d mput %d: %v", w, i, err)
						return
					}
				case n < 8:
					if err := cli.Put(table, key, value); err != nil {
						t.Errorf("client %d put %d: %v", w, i, err)
						return
					}
				default:
					if _, err := cli.Del(table, key); err != nil {
						t.Errorf("client %d del %d: %v", w, i, err)
						return
					}
				}
			}
		}(w, cli)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	type rec struct {
		found   bool
		value   string
		version uint64
	}
	eventually(t, 10*time.Second, func() string {
		for _, table := range tables {
			for _, k := range keys {
				var master rec
				for r, p := range c.Shards[0] {
					v, ver, ok, err := p.Datalet.Engine(table).AppendGet(nil, k)
					if err != nil {
						return fmt.Sprintf("%q/%s on replica %d: %v", table, k, r, err)
					}
					got := rec{ok, string(v), ver}
					if !ok {
						got.version = 0
					}
					if r == 0 {
						master = got
					} else if got != master {
						return fmt.Sprintf("%q/%s is %+v on replica %d, %+v on the master", table, k, got, r, master)
					}
				}
			}
		}
		return ""
	})
}

// BenchmarkMSECPreload times the msec-mget-direct workload's preload — a
// 2-shard × 3-replica MS+EC cluster, 50 000 keys of 16 bytes with 32-byte
// values, in 64-key MultiPuts from two clients — twice: until its last
// ack (ack_ms), and until every master's propagation queue is empty
// (drain_ms), both from the preload's start. It also reports the records
// still queued at the last ack. The benchmark's setup_s counts only the
// first; the second shows whether the slaves kept up or the work was left
// for later.
func BenchmarkMSECPreload(b *testing.B) {
	const keys, callers = 50000, 2
	pending := metrics.Default.Gauge("bespokv_controlet_prop_pending")
	var ack, drain, queued float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := Start(Options{Mode: msecMode, Shards: 2, Replicas: 3, Engine: "ht", CodecName: "binary"})
		if err != nil {
			b.Fatal(err)
		}
		var clients []*client.Client
		for j := 0; j < callers; j++ {
			cl, err := c.ClientConfig(client.Config{PoolSize: 1, DirectReads: true})
			if err != nil {
				b.Fatal(err)
			}
			clients = append(clients, cl)
		}
		b.StartTimer()
		t0 := time.Now()
		var wg sync.WaitGroup
		for j, cl := range clients {
			wg.Add(1)
			go func(first int, cl *client.Client) {
				defer wg.Done()
				value := make([]byte, 32)
				var batch []wire.KV
				for k := first; k < keys; k += callers {
					batch = append(batch, wire.KV{Key: workload.Key(16, k), Value: value})
					if len(batch) == 64 || k+callers >= keys {
						if _, err := cl.MultiPut("", batch); err != nil {
							b.Error(err)
							return
						}
						batch = batch[:0]
					}
				}
			}(j, cl)
		}
		wg.Wait()
		acked := time.Since(t0)
		queued += float64(pending.Value())
		for pending.Value() != 0 {
			time.Sleep(100 * time.Microsecond)
		}
		ack, drain = ack+acked.Seconds()*1e3, drain+time.Since(t0).Seconds()*1e3
		b.StopTimer()
		for _, cl := range clients {
			cl.Close()
		}
		c.Close()
	}
	b.ReportMetric(ack/float64(b.N), "ack_ms")
	b.ReportMetric(drain/float64(b.N), "drain_ms")
	b.ReportMetric(queued/float64(b.N), "queued_at_ack")
}
