package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a concurrent, process-wide collection of named metrics.
// Lookups (Counter, Gauge, Histogram, ...) are get-or-create and intended
// for initialization or control-path code: they build a label-qualified key
// string and take a lock. Hot paths should resolve their metric pointers
// once up front — Counter.Add, Gauge.Set and Histogram.Observe are all
// lock-free atomics with zero allocations.
//
// Labels are passed as alternating key/value pairs and become part of the
// metric identity, Prometheus-style: Counter("ops_total", "op", "PUT") is a
// different series from Counter("ops_total", "op", "GET").
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry // key = name + rendered label set
	// Label-cardinality guard: at most maxLabelSets distinct labeled
	// series per metric name. Once a name hits the cap, further new label
	// sets collapse into a single overflow series (label overflow="true")
	// and bespokv_metrics_label_overflow_total{metric=name} counts the
	// collapsed lookups — so an unbounded label (a key, a peer address)
	// degrades metric fidelity instead of growing the registry without
	// bound. Unlabeled series are never capped.
	maxLabelSets int
	labelSets    map[string]int // metric name -> distinct labeled series
}

// DefaultMaxLabelSets is the per-metric cap on distinct label sets. Legit
// label spaces here (ops, shards, RPC methods, objectives) are dozens; the
// cap only exists to stop accidents.
const DefaultMaxLabelSets = 256

// overflowLabels marks the collapsed series a capped metric routes to.
var overflowLabels = []string{"overflow", "true"}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
	kindCounterFunc
	kindHistogramFunc
)

type entry struct {
	name   string // bare metric name, for # TYPE grouping
	series string // name{k="v",...} or bare name
	kind   metricKind
	// counted marks labeled series that hold a slot in the name's
	// label-set budget (overflow series don't), so Unregister can return
	// the slot.
	counted bool
	c       *Counter
	g       *Gauge
	fn      func() float64
	cfn     func() int64
	h       *Histogram
	hfn     func() *Histogram
}

// Default is the process-wide registry that instrumentation across the
// code base records into and /metrics serves from.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries:      map[string]*entry{},
		labelSets:    map[string]int{},
		maxLabelSets: DefaultMaxLabelSets,
	}
}

// SetMaxLabelSets adjusts the per-metric label-set cap (tests; 0 or
// negative restores the default). Already-registered series stay.
func (r *Registry) SetMaxLabelSets(n int) {
	if n <= 0 {
		n = DefaultMaxLabelSets
	}
	r.mu.Lock()
	r.maxLabelSets = n
	r.mu.Unlock()
}

// Counter is a monotonically increasing count. The zero value is ready to
// use; Add and Inc are single atomic adds.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// seriesKey renders name{k1="v1",k2="v2"} with labels sorted by key, so the
// same label set always maps to the same series regardless of call order.
func seriesKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("metrics: labels must be key/value pairs")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (r *Registry) lookup(name string, kind metricKind, labels []string) *entry {
	key := seriesKey(name, labels)
	r.mu.RLock()
	e := r.entries[key]
	r.mu.RUnlock()
	if e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s already registered with a different type", key))
		}
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e = r.entries[key]; e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s already registered with a different type", key))
		}
		return e
	}
	// Cardinality guard: a new labeled series past the cap collapses into
	// the metric's overflow series (which itself never counts toward the
	// cap, and the overflow counter below is unlabeled-safe by recursion:
	// it has exactly one label value per capped metric name).
	if len(labels) > 0 && r.labelSets[name] >= r.maxLabelSets && name != "bespokv_metrics_label_overflow_total" {
		r.createLocked("bespokv_metrics_label_overflow_total", kindCounter, []string{"metric", name}).c.Inc()
		return r.createLocked(name, kind, overflowLabels)
	}
	e = r.createLocked(name, kind, labels)
	if len(labels) > 0 && !e.counted {
		e.counted = true
		r.labelSets[name]++
	}
	return e
}

// createLocked is get-or-create without the cardinality guard; callers hold
// r.mu and account labelSets themselves (overflow series are unaccounted on
// purpose).
func (r *Registry) createLocked(name string, kind metricKind, labels []string) *entry {
	key := seriesKey(name, labels)
	if e := r.entries[key]; e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s already registered with a different type", key))
		}
		return e
	}
	e := &entry{name: name, series: key, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = &Histogram{}
	}
	r.entries[key] = e
	return e
}

// Counter returns the counter registered under name and labels, creating
// it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, kindCounter, labels).c
}

// Gauge returns the gauge registered under name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, kindGauge, labels).g
}

// Histogram returns the latency histogram registered under name and
// labels, creating it on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.lookup(name, kindHistogram, labels).h
}

// GaugeFunc registers fn to be evaluated at scrape time under name and
// labels. Re-registering the same series replaces the function, so
// restartable components (tests, the in-process cluster harness) always
// expose their latest instance.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	r.set(&entry{kind: kindGaugeFunc, fn: fn}, name, labels)
}

// CounterFunc registers fn as a counter read at scrape time, for a count
// kept elsewhere (summed over live instances, say); fn must never go
// backwards. Re-registering replaces the function, as GaugeFunc does.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...string) {
	r.set(&entry{kind: kindCounterFunc, cfn: fn}, name, labels)
}

// HistogramFunc registers fn as a histogram read at scrape time, as
// CounterFunc does for counts: one built from several, or one kept
// elsewhere (the bench harness exports the very histogram it prints
// figures from, so live metrics and bench output never disagree).
func (r *Registry) HistogramFunc(name string, fn func() *Histogram, labels ...string) {
	r.set(&entry{kind: kindHistogramFunc, hfn: fn}, name, labels)
}

// set installs e as the series name{labels}, replacing one of the same kind
// and keeping its label-set slot.
func (r *Registry) set(e *entry, name string, labels []string) {
	key := seriesKey(name, labels)
	e.name, e.series = name, key
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.entries[key]
	if prev != nil && prev.kind != e.kind {
		panic(fmt.Sprintf("metrics: %s already registered with a different type", key))
	}
	if len(labels) > 0 && (prev == nil || !prev.counted) {
		e.counted = true
		r.labelSets[name]++
	} else if prev != nil {
		e.counted = prev.counted
	}
	r.entries[key] = e
}

// Unregister removes the series identified by name and labels, if present,
// returning its label-set slot to the metric's cardinality budget.
func (r *Registry) Unregister(name string, labels ...string) {
	key := seriesKey(name, labels)
	r.mu.Lock()
	if e := r.entries[key]; e != nil && e.counted {
		r.labelSets[name]--
	}
	delete(r.entries, key)
	r.mu.Unlock()
}

// WriteProm renders the registry in the Prometheus text exposition format
// (version 0.0.4). Histograms are emitted with one cumulative le bucket per
// power of two (25 bounds, 2µs .. 2^25µs, in seconds) plus +Inf, _sum and
// _count. Series are sorted, so output is deterministic for tests.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].series < entries[j].series
	})
	var lastTyped string
	for _, e := range entries {
		if e.name != lastTyped {
			lastTyped = e.name
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, promType(e.kind)); err != nil {
				return err
			}
		}
		var err error
		switch e.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", e.series, e.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", e.series, e.g.Value())
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s %g\n", e.series, e.fn())
		case kindCounterFunc:
			_, err = fmt.Fprintf(w, "%s %d\n", e.series, e.cfn())
		case kindHistogram:
			err = writePromHistogram(w, e.name, e.series, e.h)
		case kindHistogramFunc:
			err = writePromHistogram(w, e.name, e.series, e.hfn())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func promType(k metricKind) string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram, kindHistogramFunc:
		return "histogram"
	default:
		return "gauge"
	}
}

// writePromHistogram emits name_bucket{...,le="..."} lines with cumulative
// counts, then name_sum (seconds) and name_count.
func writePromHistogram(w io.Writer, name, series string, h *Histogram) error {
	counts := h.expCounts()
	var cum int64
	for exp, n := range counts {
		cum += n
		// Upper bound of exponent bucket exp is 2^(exp+1) µs.
		le := float64(int64(1)<<(exp+1)) / 1e6
		if _, err := fmt.Fprintf(w, "%s %d\n", bucketSeries(name, series, fmt.Sprintf("%g", le)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", bucketSeries(name, series, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %g\n", suffixSeries(name, series, "_sum"), h.Sum().Seconds()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", suffixSeries(name, series, "_count"), h.Count())
	return err
}

// bucketSeries splices an le label into a series: name{a="b"} + le=x ->
// name_bucket{a="b",le="x"}.
func bucketSeries(name, series, le string) string {
	labels := strings.TrimPrefix(series, name)
	if labels == "" {
		return name + `_bucket{le="` + le + `"}`
	}
	// labels is "{...}"; insert before the closing brace.
	return name + "_bucket" + labels[:len(labels)-1] + `,le="` + le + `"}`
}

func suffixSeries(name, series, suffix string) string {
	return name + suffix + strings.TrimPrefix(series, name)
}

// Uptime tracks process start for /statusz; set once at registry creation.
var processStart = time.Now()

// ProcessUptime returns how long the process has been running.
func ProcessUptime() time.Duration { return time.Since(processStart) }
