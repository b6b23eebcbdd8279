package telemetry

import (
	"sync"

	"bespokv/internal/metrics"
	"bespokv/internal/wire"
)

// Layer is one layer's recorders in this process — its controlets, its
// datalets or its clients. It holds the class table they share and is their
// Prometheus view: bespokv_<layer>_ops_total{op} and _op_seconds{op} are
// summed over the live recorders at scrape time, plus the retired totals of
// the ones closed, so a server's restart never sends a counter backwards.
type Layer struct {
	classOf [wire.OpMax + 1]Class

	mu sync.Mutex
	// live holds the open recorders and retired, which the closed ones'
	// counts are folded into.
	live    map[*Recorder]struct{}
	retired Recorder
}

func newLayer(classOf func(wire.Op) Class) *Layer {
	l := &Layer{}
	l.live = map[*Recorder]struct{}{&l.retired: {}}
	for op := range l.classOf {
		l.classOf[op] = classOf(wire.Op(op))
	}
	return l
}

// NewLayer returns the layer name (client, controlet, datalet), classing
// ops with classOf, and registers its per-op series in metrics.Default.
func NewLayer(name string, classOf func(wire.Op) Class) *Layer {
	l := newLayer(classOf)
	for op := wire.OpNop; op <= wire.OpMax; op++ {
		metrics.Default.CounterFunc("bespokv_"+name+"_ops_total", func() int64 { return l.count(op) }, "op", op.String())
		metrics.Default.HistogramFunc("bespokv_"+name+"_op_seconds", func() *metrics.Histogram { return l.latency(op) }, "op", op.String())
	}
	return l
}

// NewRecorder returns a recorder of this layer, counted in its series from
// now on.
func (l *Layer) NewRecorder(opts Options) *Recorder {
	r := newRecorder(l, opts)
	l.mu.Lock()
	l.live[r] = struct{}{}
	l.mu.Unlock()
	return r
}

// Close folds r's op counts and latencies into its layer's retired totals.
// Call it once r's server has stopped answering; Close twice is a no-op.
func (r *Recorder) Close() {
	l := r.layer
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.live[r]; !ok {
		return
	}
	delete(l.live, r)
	for op := range r.ops {
		l.retired.ops[op].Add(r.ops[op].Load())
		l.retired.lat[op].Merge(&r.lat[op])
	}
}

func (l *Layer) count(op wire.Op) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for r := range l.live {
		n += r.ops[op].Load()
	}
	return n
}

func (l *Layer) latency(op wire.Op) *metrics.Histogram {
	h := new(metrics.Histogram)
	l.mu.Lock()
	defer l.mu.Unlock()
	for r := range l.live {
		h.Merge(&r.lat[op])
	}
	return h
}
