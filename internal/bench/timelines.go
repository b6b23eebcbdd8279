package bench

import (
	"fmt"
	"sync"
	"time"

	"bespokv/internal/client"
	"bespokv/internal/cluster"
	"bespokv/internal/metrics"
	"bespokv/internal/topology"
	"bespokv/internal/workload"
)

// runTimeline drives kvs with gens until stop closes, recording each
// successful completion on tl.
func runTimeline(kvs []KV, gens []*workload.Generator, tl *metrics.Timeline, stop <-chan struct{}) {
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kv := kvs[i%len(kvs)]
			gen := gens[i]
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := gen.Next()
				var err error
				switch op.Kind {
				case workload.Get:
					err = kv.Get(op.Key)
				case workload.Put:
					err = kv.Put(op.Key, op.Value)
				case workload.Scan:
					err = kv.Scan(op.Key, op.End, op.Limit)
				}
				if err == nil {
					tl.Record()
				}
			}
		}(i)
	}
	wg.Wait()
}

func (p *Params) printTimeline(figure, series string, tl *metrics.Timeline) {
	marks := tl.Marks()
	for label, at := range marks {
		p.note("%-8s %-28s mark %s at t=%.2fs", figure, series, label, at.Seconds())
	}
	for _, pt := range tl.Series() {
		p.row(figure, series, fmt.Sprintf("t=%.2fs", pt.At.Seconds()), pt.QPS/1000, "")
	}
}

// Fig10Transitions regenerates Fig. 10: throughput over time while the
// cluster transitions live from MS+EC to each of MS+SC, AA+EC and AA+SC
// under a zipfian 95% GET load on 3 shards. Expected shape: steady
// throughput, a dip when clients re-route to the new controlets, recovery
// within a few seconds, and zero downtime (no window of total failure).
func Fig10Transitions(p Params) error {
	p.defaults()
	// The timeline runs 3× the measurement window: before / during /
	// after the transition.
	phase := p.MeasureFor
	for _, to := range []topology.Mode{msSC, aaEC, aaSC} {
		c, err := cluster.Start(cluster.Options{
			NetworkName:     p.NetworkName,
			Shards:          3,
			Replicas:        3,
			Mode:            msEC,
			Engine:          "ht",
			DisableFailover: true,
		})
		if err != nil {
			return err
		}
		kvs := make([]KV, p.Clients)
		for i := range kvs {
			kv, err := NewBespoKV(c)
			if err != nil {
				c.Close()
				return err
			}
			kvs[i] = kv
		}
		if err := Preload(kvs[0], p.Preload); err != nil {
			c.Close()
			return err
		}
		gens, err := makeGens(p.Clients, p.zipfDist(), workload.ReadMostly, 42)
		if err != nil {
			c.Close()
			return err
		}
		tl := metrics.NewTimeline(phase / 10)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			runTimeline(kvs, gens, tl, stop)
		}()
		time.Sleep(phase)
		tl.Mark("transition-start")
		if err := c.Transition(to); err != nil {
			close(stop)
			<-done
			c.Close()
			return err
		}
		tl.Mark("transition-complete")
		time.Sleep(phase)
		close(stop)
		<-done
		for _, kv := range kvs {
			kv.Close()
		}
		c.Close()
		p.printTimeline("fig10", "ms+ec->"+to.String(), tl)
	}
	return nil
}

// Fig16Failover regenerates Fig. 16 (Appendix D): throughput over time
// across a node kill, for the MS cases (head/tail kills under SC,
// master/slave kills under EC) and the AA case, plus the dynomite
// baseline. A standby pair is registered so the coordinator's recovery
// path (launch → recover data → rejoin) is exercised end to end. Expected
// shape: MS drops ~1/3 of one shard's traffic (head or tail loss) then
// recovers once the chain is repaired; EC slave kills barely dent reads
// (~1/9); AA dips only marginally.
func Fig16Failover(p Params) error {
	p.defaults()
	phase := p.MeasureFor
	cases := []struct {
		series string
		mode   topology.Mode
		mix    workload.Mix
		kill   func(c *cluster.Cluster)
	}{
		{"ms+sc/95get/kill-tail", msSC, workload.ReadMostly, func(c *cluster.Cluster) { c.KillNode(0, 2) }},
		{"ms+sc/50get/kill-head", msSC, workload.UpdateIntensive, func(c *cluster.Cluster) { c.KillNode(0, 0) }},
		{"ms+ec/95get/kill-slave", msEC, workload.ReadMostly, func(c *cluster.Cluster) { c.KillNode(0, 1) }},
		{"ms+ec/50get/kill-master", msEC, workload.UpdateIntensive, func(c *cluster.Cluster) { c.KillNode(0, 0) }},
		{"aa+ec/95get/kill-any", aaEC, workload.ReadMostly, func(c *cluster.Cluster) { c.KillNode(0, 1) }},
		{"aa+ec/50get/kill-any", aaEC, workload.UpdateIntensive, func(c *cluster.Cluster) { c.KillNode(0, 1) }},
	}
	// The failure detector must tolerate the harness's heartbeat cadence:
	// a timeout below ~4 heartbeat intervals would fail healthy nodes.
	hbInterval := 50 * time.Millisecond
	hbTimeout := phase / 3
	if hbTimeout < 4*hbInterval {
		hbTimeout = 4 * hbInterval
	}
	// More load workers than usual: a worker stuck retrying the killed
	// shard must not starve the surviving shards (the paper's YCSB client
	// fleet had hundreds of threads), or every kill reads as a total
	// outage instead of a proportional dip.
	clients := p.Clients * 4
	if clients < 12 {
		clients = 12
	}
	for _, cse := range cases {
		c, err := cluster.Start(cluster.Options{
			NetworkName:       p.NetworkName,
			Shards:            3,
			Replicas:          3,
			Mode:              cse.mode,
			Engine:            "ht",
			Standbys:          1,
			HeartbeatInterval: hbInterval,
			HeartbeatTimeout:  hbTimeout,
		})
		if err != nil {
			return err
		}
		kvs := make([]KV, clients)
		for i := range kvs {
			// Fail fast: a request to the killed shard must release its
			// worker in milliseconds so surviving shards keep their
			// throughput (the proportional dip the paper shows).
			cli, err := c.ClientConfig(client.Config{Retries: 1, RetryBackoff: time.Millisecond})
			if err != nil {
				c.Close()
				return err
			}
			kvs[i] = bespoKV{c: cli}
		}
		if err := Preload(kvs[0], p.Preload); err != nil {
			c.Close()
			return err
		}
		gens, err := makeGens(clients, p.zipfDist(), cse.mix, 42)
		if err != nil {
			c.Close()
			return err
		}
		tl := metrics.NewTimeline(phase / 10)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			runTimeline(kvs, gens, tl, stop)
		}()
		time.Sleep(phase)
		tl.Mark("kill")
		cse.kill(c)
		time.Sleep(2 * phase)
		close(stop)
		<-done
		for _, kv := range kvs {
			kv.Close()
		}
		c.Close()
		p.printTimeline("fig16", cse.series, tl)
	}
	return nil
}
