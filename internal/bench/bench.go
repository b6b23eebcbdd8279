// Package bench implements the experiment harness that regenerates every
// table and figure in the paper's evaluation (§VIII, Appendices D and E).
// Each experiment builds its clusters through internal/cluster, drives
// them with internal/workload, measures with internal/metrics, and prints
// rows in a uniform "figure series x y" format. The cmd/bespokv-bench
// binary runs experiments at paper-like (scaled) parameters; the
// repository-root bench_test.go wraps the same functions in testing.B.
//
// Absolute numbers will not match the paper (its testbed was a 48-node GCE
// cluster and a 12-machine 10 GbE testbed; this harness runs every node in
// one process), but the comparative shapes — who wins, by what factor,
// where the crossovers sit — are the reproduction target.
package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"bespokv/internal/client"
	"bespokv/internal/cluster"
	"bespokv/internal/datalet"
	"bespokv/internal/metrics"
	"bespokv/internal/wire"
	"bespokv/internal/workload"
)

// Params scale an experiment run.
type Params struct {
	// Out receives result rows.
	Out io.Writer
	// MeasureFor is the measurement window per data point.
	MeasureFor time.Duration
	// Clients is the number of concurrent load generators per point.
	Clients int
	// Keys is the keyspace size; Preload keys are inserted first.
	Keys    int
	Preload int
	// NodeCounts is the cluster-size sweep for the scalability figures
	// (total nodes; shards = nodes/3 at 3 replicas).
	NodeCounts []int
	// NetworkName is "inproc" (default) or "tcp".
	NetworkName string
}

// Quick returns parameters for smoke runs (testing.B, CI).
func Quick(out io.Writer) Params {
	return Params{
		Out:        out,
		MeasureFor: 300 * time.Millisecond,
		Clients:    4,
		Keys:       5000,
		Preload:    2000,
		NodeCounts: []int{3, 6},
	}
}

// Full returns the paper-shaped parameters (scaled to one box).
func Full(out io.Writer) Params {
	return Params{
		Out:        out,
		MeasureFor: 2 * time.Second,
		Clients:    8,
		Keys:       100000,
		Preload:    50000,
		NodeCounts: []int{3, 6, 12, 24},
	}
}

func (p *Params) defaults() {
	if p.MeasureFor <= 0 {
		p.MeasureFor = time.Second
	}
	if p.Clients <= 0 {
		p.Clients = 4
	}
	if p.Keys <= 0 {
		p.Keys = 10000
	}
	if p.Preload < 0 {
		p.Preload = 0
	}
	if len(p.NodeCounts) == 0 {
		p.NodeCounts = []int{3, 6}
	}
	if p.NetworkName == "" {
		p.NetworkName = "inproc"
	}
}

// row prints one result row.
func (p *Params) row(figure, series string, x any, kqps float64, extra string) {
	if p.Out == nil {
		return
	}
	if extra != "" {
		extra = "  " + extra
	}
	fmt.Fprintf(p.Out, "%-8s %-28s x=%-10v kqps=%8.1f%s\n", figure, series, x, kqps, extra)
}

func (p *Params) note(format string, args ...any) {
	if p.Out == nil {
		return
	}
	fmt.Fprintf(p.Out, format+"\n", args...)
}

// KV abstracts the store under test so the same load loop drives bespokv
// clusters and the baseline systems.
type KV interface {
	Put(key, value []byte) error
	Get(key []byte) error
	Scan(start, end []byte, limit int) error
	Close() error
}

// bespoKV adapts client.Client.
type bespoKV struct{ c *client.Client }

func (b bespoKV) Put(key, value []byte) error { return b.c.Put("", key, value) }
func (b bespoKV) Get(key []byte) error {
	_, _, err := b.c.Get("", key)
	return err
}
func (b bespoKV) Scan(start, end []byte, limit int) error {
	_, err := b.c.GetRange("", start, end, limit)
	return err
}
func (b bespoKV) Close() error { return b.c.Close() }

// NewBespoKV wraps a cluster client.
func NewBespoKV(c *cluster.Cluster) (KV, error) {
	cli, err := c.Client()
	if err != nil {
		return nil, err
	}
	return bespoKV{c: cli}, nil
}

// rawKV adapts a raw wire-protocol endpoint (baselines).
type rawKV struct{ pool *datalet.Pool }

// NewRawKV opens a pooled wire client to addr.
func NewRawKV(c *cluster.Cluster, addr string, conns int) (KV, error) {
	pool, err := datalet.DialPool(c.Net, addr, c.Codec, conns)
	if err != nil {
		return nil, err
	}
	return rawKV{pool: pool}, nil
}

func (r rawKV) do(req *wire.Request) error {
	var resp wire.Response
	if err := r.pool.Do(req, &resp); err != nil {
		return err
	}
	return resp.ErrValue()
}

func (r rawKV) Put(key, value []byte) error {
	return r.do(&wire.Request{Op: wire.OpPut, Key: key, Value: value})
}

func (r rawKV) Get(key []byte) error {
	return r.do(&wire.Request{Op: wire.OpGet, Key: key})
}

func (r rawKV) Scan(start, end []byte, limit int) error {
	return r.do(&wire.Request{Op: wire.OpScan, Key: start, EndKey: end, Limit: uint32(limit)})
}

func (r rawKV) Close() error { return r.pool.Close() }

// Result is one measured data point.
type Result struct {
	Ops     int64
	Errors  int64
	KQPS    float64
	Latency *metrics.Histogram
}

// Preload inserts n sequential keys through kv.
func Preload(kv KV, n int) error {
	val := make([]byte, 32)
	for i := 0; i < n; i++ {
		if err := kv.Put(workload.Key(16, i), val); err != nil {
			return fmt.Errorf("preload key %d: %w", i, err)
		}
	}
	return nil
}

// RunLoad drives kvs (one per client goroutine, round-robin) with ops from
// per-client generators for d and returns the aggregate result. gens must
// have the same length as the client count.
func RunLoad(kvs []KV, gens []*workload.Generator, d time.Duration) Result {
	var (
		wg     sync.WaitGroup
		hist   metrics.Histogram
		ops    int64
		errs   int64
		opsMu  sync.Mutex
		stopCh = make(chan struct{})
	)
	timer := time.AfterFunc(d, func() { close(stopCh) })
	defer timer.Stop()
	// Expose the live load histogram on /metrics so a scrape during a run
	// sees the same data the final report prints.
	metrics.Default.HistogramFunc("bespokv_bench_op_seconds", func() *metrics.Histogram { return &hist })
	start := time.Now()
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kv := kvs[i%len(kvs)]
			gen := gens[i]
			localOps, localErrs := int64(0), int64(0)
			for {
				select {
				case <-stopCh:
					opsMu.Lock()
					ops += localOps
					errs += localErrs
					opsMu.Unlock()
					return
				default:
				}
				op := gen.Next()
				t0 := time.Now()
				var err error
				switch op.Kind {
				case workload.Get:
					err = kv.Get(op.Key)
				case workload.Put:
					err = kv.Put(op.Key, op.Value)
				case workload.Scan:
					err = kv.Scan(op.Key, op.End, op.Limit)
				}
				hist.Observe(time.Since(t0))
				if err != nil {
					localErrs++
				} else {
					localOps++
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return Result{
		Ops:     ops,
		Errors:  errs,
		KQPS:    float64(ops) / elapsed / 1000,
		Latency: &hist,
	}
}

// makeGens builds one generator per client with split seeds.
func makeGens(n int, dist func() workload.KeyDist, mix workload.Mix, seed int64) ([]*workload.Generator, error) {
	gens := make([]*workload.Generator, n)
	for i := range gens {
		g, err := workload.NewGenerator(workload.Options{
			Dist: dist(),
			Mix:  mix,
			Seed: workload.SplitRand(seed, i),
		})
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	return gens, nil
}

// measure is the common "open K clients, preload, run mix, report" path
// against a bespokv cluster.
func (p *Params) measure(c *cluster.Cluster, dist func() workload.KeyDist, mix workload.Mix) (Result, error) {
	return p.measureWith(c, dist, mix, 0)
}

// measureWith is measure with an explicit value size (0 = default 32 B).
func (p *Params) measureWith(c *cluster.Cluster, dist func() workload.KeyDist, mix workload.Mix, valueSize int) (Result, error) {
	kvs := make([]KV, p.Clients)
	for i := range kvs {
		kv, err := NewBespoKV(c)
		if err != nil {
			return Result{}, err
		}
		kvs[i] = kv
	}
	defer func() {
		for _, kv := range kvs {
			kv.Close()
		}
	}()
	if err := Preload(kvs[0], p.Preload); err != nil {
		return Result{}, err
	}
	gens := make([]*workload.Generator, p.Clients)
	for i := range gens {
		g, err := workload.NewGenerator(workload.Options{
			Dist:      dist(),
			Mix:       mix,
			ValueSize: valueSize,
			Seed:      workload.SplitRand(42, i),
		})
		if err != nil {
			return Result{}, err
		}
		gens[i] = g
	}
	return RunLoad(kvs, gens, p.MeasureFor), nil
}

// uniformDist and zipfDist are the two key popularity shapes the paper
// sweeps.
func (p *Params) uniformDist() func() workload.KeyDist {
	keys := p.Keys
	return func() workload.KeyDist { return workload.Uniform{Keys: keys} }
}

func (p *Params) zipfDist() func() workload.KeyDist {
	keys := p.Keys
	z := workload.NewZipfian(keys) // share the precomputed tables
	return func() workload.KeyDist { return z }
}
