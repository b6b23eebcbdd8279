package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"bespokv/internal/client"
	"bespokv/internal/cluster"
	"bespokv/internal/metrics"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
	"bespokv/internal/workload"
)

// caller is one closed-loop load generator: its own client, its own seeded
// op stream, and the sentinel keys only it writes.
type caller struct {
	id       int
	w        spec
	sz       sizes
	cl       *client.Client
	ops      *workload.Generator // call types, and the key of single-key calls
	keys     *workload.Generator // key supply for MultiGets (direct workload)
	mkeys    [][]byte
	calls    uint64
	checking bool   // verify reads (measured window only: EC preloads settle in warm-up)
	bad      string // first output mismatch seen

	// Sentinels: key j holds an 8-byte counter this caller increases with
	// every overwrite; acked is the last acknowledged value, tried the last
	// sent.
	skeys        [sentinelKeys][]byte
	acked, tried [sentinelKeys]uint64
	sval         [valueSize]byte
}

func newCaller(id int, w spec, sz sizes, dist workload.KeyDist, seed int64, cl *client.Client) (*caller, error) {
	c := &caller{id: id, w: w, sz: sz, cl: cl}
	var err error
	if c.ops, err = w.generator(dist, w.mix, seed, id); err != nil {
		return nil, err
	}
	if w.direct {
		// A second stream, so the keys of a MultiGet do not depend on how
		// many PUTs the first one drew.
		if c.keys, err = w.generator(dist, workload.Analytics, seed, w.callers+id); err != nil {
			return nil, err
		}
		for i := 0; i < mgetKeys; i++ {
			c.mkeys = append(c.mkeys, make([]byte, keySize))
		}
	}
	for j := range c.skeys {
		c.skeys[j] = workload.Key(keySize, sz.keys+id*sentinelKeys+j)
	}
	for i := range c.sval {
		c.sval[i] = 's'
	}
	return c, nil
}

// call issues the caller's next request and returns its kind and how many
// operations (keys) it attempted and how many of them failed.
func (c *caller) call() (kind workload.Kind, attempted, failed int) {
	c.calls++
	if c.calls%sentinelEvery == 0 {
		j := int(c.calls/sentinelEvery) % sentinelKeys
		c.tried[j]++
		binary.BigEndian.PutUint64(c.sval[:], c.tried[j])
		if err := c.cl.Put("", c.skeys[j], c.sval[:]); err != nil {
			return workload.Put, 1, 1
		}
		c.acked[j] = c.tried[j]
		return workload.Put, 1, 0
	}
	op := c.ops.Next()
	if op.Kind == workload.Put {
		if err := c.cl.Put("", op.Key, op.Value); err != nil {
			return workload.Put, 1, 1
		}
		return workload.Put, 1, 0
	}
	if !c.w.direct {
		v, found, err := c.cl.Get("", op.Key)
		if err != nil {
			return workload.Get, 1, 1
		}
		c.checkRead(op.Key, v, found)
		return workload.Get, 1, 0
	}
	for i := range c.mkeys {
		copy(c.mkeys[i], c.keys.Next().Key)
	}
	res, err := c.cl.MultiGet("", c.mkeys)
	if err != nil {
		return workload.Get, mgetKeys, mgetKeys
	}
	for i, r := range res {
		if r.Err != nil {
			failed++
			continue
		}
		c.checkRead(c.mkeys[i], r.Value, r.Found)
	}
	return workload.Get, mgetKeys, failed
}

// checkRead verifies one successful read: a preloaded key is never missing
// (PUTs only overwrite), and every value in the store is valueSize long.
func (c *caller) checkRead(key, val []byte, found bool) {
	if !c.checking || c.bad != "" {
		return
	}
	idx := 0
	for _, d := range key[1:] {
		idx = idx*10 + int(d-'0')
	}
	switch {
	case !found && idx < c.sz.preload:
		c.bad = fmt.Sprintf("preloaded key %s not found", key)
	case found && len(val) != valueSize:
		c.bad = fmt.Sprintf("key %s: value of %d bytes, want %d", key, len(val), valueSize)
	}
}

// readBack checks every sentinel against the counters this caller holds.
// On eventually consistent modes a replica may lag, so a stale value is
// re-read until retryFor has passed.
func (c *caller) readBack(retryFor time.Duration) string {
	deadline := time.Now().Add(retryFor)
	for j, key := range c.skeys {
		if c.acked[j] == 0 {
			continue
		}
		for {
			v, found, err := c.cl.Get("", key)
			var got uint64
			if err == nil && found && len(v) == valueSize {
				got = binary.BigEndian.Uint64(v)
			}
			if err == nil && got >= c.acked[j] && got <= c.tried[j] {
				break
			}
			if !time.Now().Before(deadline) {
				return fmt.Sprintf("sentinel %s: read back %d (found=%v err=%v), last acknowledged %d", key, got, found, err, c.acked[j])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return ""
}

// window is what one caller records during a measured run; callers share
// nothing while the clock runs.
type window struct {
	start             time.Time
	slice             time.Duration
	ok                []int64 // successful operations per slice
	get, put          []hist  // per slice
	attempted, failed int64
	// cpuAt[i] is the process CPU time when slice i began, read by the one
	// caller whose window has the slice allocated, as it enters the slice.
	cpuAt []float64
	cur   int
}

func newWindow(d time.Duration) *window {
	n := int(d / time.Second)
	if n < 1 {
		n = 1
	}
	return &window{slice: d / time.Duration(n), ok: make([]int64, n), get: make([]hist, n), put: make([]hist, n)}
}

func (w *window) record(kind workload.Kind, attempted, failed int, t0, t1 time.Time) {
	w.attempted += int64(attempted)
	w.failed += int64(failed)
	i := int(t1.Sub(w.start) / w.slice)
	ok := attempted - failed
	if i >= len(w.ok) || ok == 0 {
		return // finished after the window closed, or nothing to time
	}
	if i != w.cur && w.cpuAt != nil {
		w.cur = i
		w.cpuAt[i] = cpuSeconds()
	}
	w.ok[i] += int64(ok)
	h := &w.get[i]
	if kind == workload.Put {
		h = &w.put[i]
	}
	h.add(int64(t1.Sub(t0)), uint32(ok))
}

// run drives the caller until d has passed since start, recording into win
// when it is not nil (warm-up records nothing).
func (c *caller) run(start time.Time, d time.Duration, win *window) {
	c.checking = win != nil
	for {
		t0 := time.Now()
		if t0.Sub(start) >= d {
			return
		}
		kind, attempted, failed := c.call()
		if win != nil {
			win.record(kind, attempted, failed, t0, time.Now())
		}
	}
}

// deployment is one booted and preloaded cluster with its callers.
type deployment struct {
	c       *cluster.Cluster
	callers []*caller
	took    time.Duration // boot + preload wall time
}

func (d *deployment) close() {
	for _, c := range d.callers {
		c.cl.Close()
	}
	d.c.Close()
}

// setup boots w's cluster, opens one client per caller and preloads.
func setup(w spec, sz sizes, seed int64) (*deployment, error) {
	t0 := time.Now()
	c, err := cluster.Start(w.clusterOptions(3))
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", w.name, err)
	}
	d := &deployment{c: c}
	dist := w.dist(sz)
	for i := 0; i < w.callers; i++ {
		cl, err := c.ClientConfig(client.Config{PoolSize: 1, DirectReads: w.direct})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		cr, err := newCaller(i, w, sz, dist, seed, cl)
		if err != nil {
			cl.Close()
			d.close()
			return nil, err
		}
		d.callers = append(d.callers, cr)
	}
	errs := make([]error, w.callers)
	var wg sync.WaitGroup
	for i := range d.callers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = preload(d.callers[i].cl, i, w.callers, sz.preload)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.close()
			return nil, fmt.Errorf("preload %s: %w", w.name, err)
		}
	}
	d.took = time.Since(t0)
	return d, nil
}

// preload writes keys first, first+step, ... below n in 64-key MultiPuts.
func preload(cl *client.Client, first, step, n int) error {
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = 'p'
	}
	batch := make([]wire.KV, 0, 64)
	flush := func() error {
		errs, err := cl.MultiPut("", batch)
		if err != nil {
			return err
		}
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		batch = batch[:0]
		return nil
	}
	for i := first; i < n; i += step {
		batch = append(batch, wire.KV{Key: workload.Key(keySize, i), Value: val})
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(batch) > 0 {
		return flush()
	}
	return nil
}

// sliceSample is one 1 s slice of a measured window. Every timing metric is
// the median of its slices, so a burst of interference from outside the
// process spoils one slice and not the run; result.json keeps the slices so a
// later reader can see how steady the run was.
type sliceSample struct {
	Kops       float64 `json:"kops"`
	CPUUsPerOp float64 `json:"cpu_us_per_op,omitempty"`
	GetP50Us   float64 `json:"get_p50_us,omitempty"`
	PutP50Us   float64 `json:"put_p50_us,omitempty"`
	GetP99Us   float64 `json:"get_p99_us,omitempty"`
	PutP99Us   float64 `json:"put_p99_us,omitempty"`
}

// measured is everything one window yields.
type measured struct {
	kops, cpuUsPerOp, memMB   float64 // medians of slices, and the heap after
	getP50Us, putP50Us        float64
	getP99Us, putP99Us        float64
	p99Slices                 int // slices with enough samples for a p99
	getN, putN                uint64
	attempted, failed, ok     int64
	allocsPerOp, allocBPerOp  float64
	gcPauseMsPerS             float64
	retries, shed             int64
	directReads, directMisses int64
	slices                    []sliceSample
	seconds                   float64
}

type counters struct{ retries, shed, direct, fallback int64 }

func readCounters() counters {
	r := metrics.Default
	return counters{
		retries:  r.Counter("bespokv_client_retries_total").Value(),
		shed:     r.Counter("bespokv_overload_shed_total", "layer", "controlet").Value() + r.Counter("bespokv_overload_shed_total", "layer", "datalet").Value(),
		direct:   r.Counter("bespokv_client_direct_reads_total").Value(),
		fallback: r.Counter("bespokv_client_direct_fallbacks_total").Value(),
	}
}

// cpuSeconds is the process's user+system CPU time. The whole cluster runs
// in this process, so it is the cluster's CPU (plus the callers').
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// measure runs every caller for d and reduces what they recorded.
func measure(cs []*caller, d time.Duration) measured {
	wins := make([]*window, len(cs))
	for i := range wins {
		wins[i] = newWindow(d)
	}
	n := len(wins[0].ok)
	cpuAt := make([]float64, n+1)
	wins[0].cpuAt = cpuAt
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := readCounters()
	cpuAt[0] = cpuSeconds()
	start := drive(cs, d, wins)
	elapsed := time.Since(start).Seconds()
	cpuAt[n] = cpuSeconds()
	c1 := readCounters()
	runtime.ReadMemStats(&m1)

	m := measured{seconds: elapsed}
	var kops, cpu, getP50, putP50, getP99, putP99 []float64
	for i := 0; i < n; i++ {
		var ok int64
		var g, p hist
		for _, w := range wins {
			ok += w.ok[i]
			g.merge(&w.get[i])
			p.merge(&w.put[i])
		}
		m.ok += ok
		m.getN += g.n
		m.putN += p.n
		s := sliceSample{Kops: float64(ok) / wins[0].slice.Seconds() / 1000}
		kops = append(kops, s.Kops)
		// A caller stuck in one call for a whole slice leaves no CPU reading.
		if ok > 0 && cpuAt[i] > 0 && cpuAt[i+1] > 0 {
			s.CPUUsPerOp = (cpuAt[i+1] - cpuAt[i]) * 1e6 / float64(ok)
			cpu = append(cpu, s.CPUUsPerOp)
		}
		if g.n > 0 {
			s.GetP50Us = g.quantile(0.5) / 1000
			getP50 = append(getP50, s.GetP50Us)
		}
		if p.n > 0 {
			s.PutP50Us = p.quantile(0.5) / 1000
			putP50 = append(putP50, s.PutP50Us)
		}
		// A p99 needs ten samples beyond it.
		if g.n >= 1000 {
			s.GetP99Us = g.quantile(0.99) / 1000
			getP99 = append(getP99, s.GetP99Us)
		}
		if p.n >= 1000 {
			s.PutP99Us = p.quantile(0.99) / 1000
			putP99 = append(putP99, s.PutP99Us)
		}
		m.slices = append(m.slices, s)
	}
	for _, w := range wins {
		m.attempted += w.attempted
		m.failed += w.failed
	}
	m.kops, m.cpuUsPerOp = median(kops), median(cpu)
	m.getP50Us, m.putP50Us = median(getP50), median(putP50)
	m.getP99Us, m.putP99Us = median(getP99), median(putP99)
	m.p99Slices = len(getP99)
	if ops := float64(m.ok); ops > 0 {
		m.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / ops
		m.allocBPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	}
	m.gcPauseMsPerS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / elapsed
	m.retries, m.shed = c1.retries-c0.retries, c1.shed-c0.shed
	m.directReads, m.directMisses = c1.direct-c0.direct, c1.fallback-c0.fallback

	// Space per live data set: what the heap holds once garbage is gone.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	m.memMB = float64(m1.HeapInuse) / (1 << 20)
	return m
}

// drive runs every caller for d from a common start, which it returns;
// caller i records into wins[i], or nothing when wins is nil (warm-up).
func drive(cs []*caller, d time.Duration, wins []*window) time.Time {
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range cs {
		var win *window
		if wins != nil {
			win = wins[i]
			win.start = start
		}
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			c.run(start, d, win)
		}(c)
	}
	wg.Wait()
	return start
}

// verify reads every caller's sentinels back and reports the first output
// mismatch of the run ("" when outputs are correct).
func verify(w spec, cs []*caller) string {
	retryFor := time.Duration(0)
	if w.mode.Consistency == topology.Eventual {
		retryFor = 2 * time.Second
	}
	for _, c := range cs {
		if c.bad != "" {
			return c.bad
		}
		if bad := c.readBack(retryFor); bad != "" {
			return bad
		}
	}
	return ""
}
