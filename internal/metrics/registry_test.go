package metrics

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCounterGaugeIdentity(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("ops_total", "op", "PUT")
	c2 := r.Counter("ops_total", "op", "PUT")
	if c1 != c2 {
		t.Fatal("same name+labels must return the same counter")
	}
	c3 := r.Counter("ops_total", "op", "GET")
	if c1 == c3 {
		t.Fatal("different labels must return different counters")
	}
	// Label order must not matter.
	a := r.Counter("multi", "a", "1", "b", "2")
	b := r.Counter("multi", "b", "2", "a", "1")
	if a != b {
		t.Fatal("label order must not change series identity")
	}
	c1.Add(3)
	c1.Inc()
	if c1.Value() != 4 {
		t.Fatalf("counter=%d, want 4", c1.Value())
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge=%d, want 7", g.Value())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x")
}

// A func-backed series is read at scrape time, and registering it again
// replaces the function, as a restarted component does.
func TestRegistryFuncSeriesReplace(t *testing.T) {
	r := NewRegistry()
	h1, h2 := &Histogram{}, &Histogram{}
	h1.Observe(time.Millisecond)
	r.HistogramFunc("bench_lat", func() *Histogram { return h1 })
	r.HistogramFunc("bench_lat", func() *Histogram { return h2 })
	r.CounterFunc("bench_ops_total", func() int64 { return 1 })
	r.CounterFunc("bench_ops_total", func() int64 { return 7 })
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE bench_lat histogram\n", "\nbench_lat_count 0\n", "# TYPE bench_ops_total counter\nbench_ops_total 7\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [-+]?[0-9].*$`)

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("bespokv_ops_total", "op", "PUT").Add(7)
	r.Counter("bespokv_ops_total", "op", "GET").Add(3)
	r.Gauge("bespokv_inflight").Set(12)
	r.GaugeFunc("bespokv_epoch", func() float64 { return 42 })
	h := r.Histogram("bespokv_op_seconds", "op", "PUT")
	h.Observe(3 * time.Microsecond)
	h.Observe(100 * time.Microsecond)
	h.Observe(20 * time.Millisecond)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	var samples, types int
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			types++
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line does not parse as prometheus sample: %q", line)
		}
		samples++
	}
	if types != 4 {
		t.Fatalf("TYPE lines=%d, want 4\n%s", types, out)
	}
	if samples == 0 {
		t.Fatal("no samples emitted")
	}
	for _, want := range []string{
		`bespokv_ops_total{op="PUT"} 7`,
		`bespokv_ops_total{op="GET"} 3`,
		`bespokv_inflight 12`,
		`bespokv_epoch 42`,
		`bespokv_op_seconds_bucket{op="PUT",le="+Inf"} 3`,
		`bespokv_op_seconds_count{op="PUT"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and non-decreasing.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `bespokv_op_seconds_bucket`) {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = v
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c", "w", string(rune('a'+w%4))).Inc()
				r.Histogram("h").Observe(time.Microsecond)
				if i%50 == 0 {
					var sb strings.Builder
					_ = r.WriteProm(&sb)
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for _, l := range []string{"a", "b", "c", "d"} {
		total += r.Counter("c", "w", l).Value()
	}
	if total != 8*500 {
		t.Fatalf("total=%d, want 4000", total)
	}
}

// TestHotPathZeroAlloc is the hard guard behind the Makefile obs target:
// counter increments and histogram observations must not allocate.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bespokv_test_total")
	h := r.Histogram("bespokv_test_seconds")
	g := r.Gauge("bespokv_test_depth")
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(137 * time.Microsecond) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1); g.Add(-1) }); n != 0 {
		t.Fatalf("Gauge.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { SampleLatency() }); n != 0 {
		t.Fatalf("SampleLatency allocates %v/op", n)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

func BenchmarkRegistryLookup(b *testing.B) {
	r := NewRegistry()
	r.Counter("bespokv_ops_total", "op", "PUT")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("bespokv_ops_total", "op", "PUT")
	}
}

func TestLabelCardinalityCap(t *testing.T) {
	r := NewRegistry()
	r.SetMaxLabelSets(4)

	// Distinct label sets up to the cap get real series.
	for i := 0; i < 4; i++ {
		r.Counter("bespokv_capped_total", "key", fmt.Sprintf("k%d", i)).Inc()
	}
	// Everything past the cap collapses into one overflow series.
	for i := 4; i < 10; i++ {
		r.Counter("bespokv_capped_total", "key", fmt.Sprintf("k%d", i)).Inc()
	}
	over := r.Counter("bespokv_capped_total", "overflow", "true")
	if got := over.Value(); got != 6 {
		t.Fatalf("overflow series absorbed %d increments, want 6", got)
	}
	// Re-looking-up a pre-cap series still returns the real one.
	r.Counter("bespokv_capped_total", "key", "k2").Inc()
	var buf strings.Builder
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `bespokv_capped_total{key="k2"} 2`) {
		t.Fatalf("pre-cap series lost:\n%s", out)
	}
	if strings.Contains(out, `key="k7"`) {
		t.Fatalf("post-cap label set leaked into the registry:\n%s", out)
	}
	if !strings.Contains(out, `bespokv_capped_total{overflow="true"} 6`) {
		t.Fatalf("overflow bucket missing:\n%s", out)
	}
	// The guard counts what it collapsed: six fresh post-cap label sets so
	// far; another new one below routes to overflow and counts too.
	oc := r.Counter("bespokv_metrics_label_overflow_total", "metric", "bespokv_capped_total")
	if got := oc.Value(); got != 6 {
		t.Fatalf("overflow counter = %d, want 6", got)
	}
	r.Counter("bespokv_capped_total", "key", "k99").Inc()
	if got := oc.Value(); got != 7 {
		t.Fatalf("overflow counter after repeat = %d, want 7", got)
	}
	// Series count per name stays bounded: 4 real + overflow.
	series := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "bespokv_capped_total{") {
			series++
		}
	}
	if series != 5 {
		t.Fatalf("rendered %d capped series, want 4 real + 1 overflow", series)
	}
	// Unlabeled series are never capped.
	r.Counter("bespokv_plain_total").Inc()

	// Unregister returns the slot: a new label set becomes a real series
	// again.
	r.Unregister("bespokv_capped_total", "key", "k0")
	fresh := r.Counter("bespokv_capped_total", "key", "fresh")
	fresh.Inc()
	if fresh == over {
		t.Fatal("freed slot still routed to overflow")
	}
}

func TestLabelCardinalityCapGaugeFunc(t *testing.T) {
	// GaugeFunc registrations hold label-set slots too (they re-register
	// in place without double counting), so lookup-created series of the
	// same name see an honest budget.
	r := NewRegistry()
	r.SetMaxLabelSets(2)
	r.GaugeFunc("bespokv_gf", func() float64 { return 1 }, "n", "a")
	r.GaugeFunc("bespokv_gf", func() float64 { return 2 }, "n", "a") // replace, same slot
	r.GaugeFunc("bespokv_gf", func() float64 { return 3 }, "n", "b")
	if got := r.labelSets["bespokv_gf"]; got != 2 {
		t.Fatalf("labelSets = %d, want 2", got)
	}
}
