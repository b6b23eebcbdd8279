// Command benchmark is the repository's benchmark: it boots each workload's
// cluster in this process through internal/cluster, drives it closed-loop
// with two callers, checks the outputs, and prints every metric by name and
// unit. BENCHMARK.json at the repository root names the workloads and
// metrics and fixes the regression bounds; README.md in this directory
// explains each of them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"bespokv/internal/trace"
)

// contract is the part of BENCHMARK.json the program reads: which metrics to
// report, their units, and the bounds -repeat checks.
type contract struct {
	RunSeconds float64          `json:"run_seconds"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick turns computed values into the metrics the contract lists.
func pick(list []contractMetric, values map[string]float64) (map[string]metric, error) {
	out := map[string]metric{}
	for _, cm := range list {
		v, ok := values[cm.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s: no finite value (have %v)", cm.Name, v)
		}
		out[cm.Name] = metric{Value: v, Unit: cm.Unit}
	}
	return out, nil
}

// workloadResult is one workload's entry in result.json.
type workloadResult struct {
	Name        string             `json:"name"`
	Correct     bool               `json:"correct"`
	Mismatch    string             `json:"mismatch,omitempty"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	EndToEnd    map[string]metric  `json:"end_to_end,omitempty"`
	PerLayer    map[string]metric  `json:"per_layer,omitempty"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	Slices      []sliceSample      `json:"slices"`
	Rungs       map[string]float64 `json:"ladder_rungs_ns,omitempty"`
	Stages      []stageStat        `json:"tracer_stages,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
}

type resultFile struct {
	GitSHA     string           `json:"git_sha"`
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	Quick      bool             `json:"quick"`
	Workloads  []workloadResult `json:"workloads"`
}

type options struct {
	seed     int64
	window   time.Duration
	sz       sizes
	quick    bool
	traced   bool
	spansOut string
	con      *contract
}

func (o options) warmup() time.Duration {
	if w := o.window / 4; w < 3*time.Second {
		return w
	}
	return 3 * time.Second
}

// setupRuns is how many times an untraced run boots and preloads the
// cluster; setup_s is their median.
const setupRuns = 3

// diagnostics are reported in result.json but carry no bound.
func (m *measured) diagnostics() map[string]float64 {
	d := map[string]float64{
		"get_p99_us":  m.getP99Us,
		"put_p99_us":  m.putP99Us,
		"p99_slices":  float64(m.p99Slices),
		"get_samples": float64(m.getN),
		"put_samples": float64(m.putN),
		"window_s":    m.seconds,
	}
	if m.attempted > 0 {
		d["failed_frac"] = float64(m.failed) / float64(m.attempted)
	}
	return d
}

// runUntraced measures w's end-to-end metrics with the program's tracer off.
func runUntraced(w spec, o options) (workloadResult, error) {
	res := workloadResult{Name: w.name}
	d, err := setup(w, o.sz, o.seed)
	if err != nil {
		return res, err
	}
	setups := []float64{d.took.Seconds()}
	drive(d.callers, o.warmup(), nil)
	m := measure(d.callers, o.window)
	res.Mismatch = verify(w, d.callers)
	d.close()
	for len(setups) < setupRuns {
		d, err := setup(w, o.sz, o.seed)
		if err != nil {
			return res, err
		}
		setups = append(setups, d.took.Seconds())
		d.close()
	}
	res.Correct = res.Mismatch == ""
	res.Attempted, res.Failed = m.attempted, m.failed
	res.Slices = m.slices
	res.Diagnostics = m.diagnostics()
	res.EndToEnd, err = pick(o.con.EndToEnd, map[string]float64{
		"throughput_kops": m.kops,
		"get_p50_us":      m.getP50Us,
		"put_p50_us":      m.putP50Us,
		"cpu_us_per_op":   m.cpuUsPerOp,
		"mem_mb":          m.memMB,
		"setup_s":         median(setups),
	})
	return res, err
}

// runTraced measures w's per-layer metrics: the layer ladder, the whole-
// process counts around a short untraced window, and a second window with
// the program's own tracer sampling every request, whose slowdown is the
// tracing overhead and whose spans cross-check the ladder.
func runTraced(w spec, o options) (workloadResult, error) {
	res := workloadResult{Name: w.name}
	// Half the run goes to the ladder's rungs, the rest to the two windows.
	l, err := newLadder(w, o.sz, o.seed, o.window/2/ladderRungs)
	if err != nil {
		return res, err
	}
	if err := l.standalone(); err != nil {
		return res, err
	}
	d, err := setup(w, o.sz, o.seed)
	if err != nil {
		return res, err
	}
	drive(d.callers, o.warmup(), nil)
	plain := measure(d.callers, o.window*3/10)
	trace.SetSampleEvery(1)
	sampled := measure(d.callers, o.window*3/20)
	// The tracer's ring keeps its last 4096 spans: refill it from one caller,
	// the ladder's load, so its stage times can be set beside the rungs.
	measure(d.callers[:1], o.window/20)
	trace.SetSampleEvery(0)
	res.Stages = tracerStages()
	res.Mismatch = verify(w, d.callers)
	err = l.replicated(d)
	d.close()
	if err != nil {
		return res, err
	}
	if err := l.singleReplica(); err != nil {
		return res, err
	}
	if o.spansOut != "" {
		if err := l.tr.dump(o.spansOut); err != nil {
			return res, err
		}
	}

	res.Correct = res.Mismatch == ""
	res.Attempted, res.Failed = plain.attempted+sampled.attempted, plain.failed+sampled.failed
	res.Slices = plain.slices
	res.Diagnostics = plain.diagnostics()
	res.Rungs = l.ns
	ns, kop := l.ns, float64(plain.ok)/1000
	hop := ns["wire.binary"] + ns["transport.echo"]
	getFrac, putFrac := float64(w.mix.GetPct)/100, float64(w.mix.PutPct)/100
	values := map[string]float64{
		"workload.gen_ns":             ns["workload.gen"],
		"topology.lookup_ns":          ns["topology.lookup"],
		"wire.codec_ns":               ns["wire.binary"],
		"wire.text_codec_ns":          ns["wire.text"],
		"wire.allocs_per_op":          l.allocs["wire.binary"],
		"wire.bytes_per_op":           l.wireBytes,
		"transport.rtt_ns":            ns["transport.echo"],
		"store.get_ns":                ns["store.get"],
		"store.put_ns":                ns["store.put"],
		"store.allocs_per_op":         getFrac*l.allocs["store.get"] + putFrac*l.allocs["store.put"],
		"dlm.lock_rtt_ns":             ns["dlm.lock"],
		"sharedlog.append_rtt_ns":     ns["sharedlog.append"],
		"datalet.self_ns":             ns["datalet.read"] - float64(l.nread)*ns["store.get"] - hop,
		"controlet.dispatch_self_ns":  ns["controlet1.read"] - ns["datalet.read"] - hop,
		"controlet.replicate_self_ns": ns["cluster.put"] - ns["controlet1.put"],
		"client.route_self_ns":        ns["client.read"] - ns["cluster.read"],
		"process.allocs_per_op":       plain.allocsPerOp,
		"process.alloc_bytes_per_op":  plain.allocBPerOp,
		"process.gc_pause_ms_per_s":   plain.gcPauseMsPerS,
		"client.retries_per_kop":      float64(plain.retries) / kop,
		"client.direct_hit_frac":      0,
		"overload.shed_per_kop":       float64(plain.shed) / kop,
		"trace.span_cost_ns":          l.spanNs,
		"trace_overhead_frac":         1 - sampled.kops/plain.kops,
		"ladder.top_vs_e2e":           ns["client.read"] / (plain.getP50Us * 1000),
	}
	if n := plain.directReads + plain.directMisses; n > 0 {
		values["client.direct_hit_frac"] = float64(plain.directReads) / float64(n)
	}
	// A self time is a difference of two medians. Where the layer adds
	// nothing a caller waits for (replication on the eventual modes is
	// asynchronous) the difference is noise around zero: report zero, and
	// keep the measured value in a note and both rungs in ladder_rungs_ns.
	for _, name := range []string{"datalet.self_ns", "controlet.dispatch_self_ns", "controlet.replicate_self_ns", "client.route_self_ns"} {
		if v := values[name]; v < 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%s measured %.0f ns (the rung below ran slower than the rung above); reported as 0", name, v))
			values[name] = 0
		}
	}
	res.PerLayer, err = pick(o.con.PerLayer, values)
	if err != nil {
		return res, err
	}
	// The program's tracer and the ladder timed the same calls from one
	// caller. A large gap is worth a look, not a failure.
	for _, pair := range [][2]string{{"client.GET", "client.read"}, {"client.PUT", "client.put"}, {"dlm.wait", "dlm.lock"}, {"log.append", "sharedlog.append"}} {
		for _, st := range res.Stages {
			if rung := ns[pair[1]]; st.Stage == pair[0] && rung > 0 && math.Abs(st.MedianNs/rung-1) > 0.25 {
				res.Notes = append(res.Notes, fmt.Sprintf("tracer stage %s median %.0f ns vs ladder rung %s %.0f ns: differ by more than 25%%", pair[0], st.MedianNs, pair[1], rung))
			}
		}
	}
	return res, nil
}

// report prints one workload's metrics by name and unit.
func report(out io.Writer, w spec, res workloadResult, o options) {
	fmt.Fprintf(out, "== %s  seed=%d  attempted=%d failed=%d correct=%v\n", res.Name, o.seed, res.Attempted, res.Failed, res.Correct)
	if res.Mismatch != "" {
		fmt.Fprintf(out, "   OUTPUT MISMATCH: %s\n", res.Mismatch)
	}
	list, metrics := o.con.EndToEnd, res.EndToEnd
	if o.traced {
		list, metrics = o.con.PerLayer, res.PerLayer
	}
	for _, cm := range list {
		mark := ""
		for _, off := range w.offPath {
			if off == cm.Name {
				mark = "  (measured, but not on this workload's path)"
			}
		}
		fmt.Fprintf(out, "   %-30s %14.4f %s%s\n", cm.Name, metrics[cm.Name].Value, cm.Unit, mark)
	}
	d := res.Diagnostics
	fmt.Fprintf(out, "   diagnostics: get_p99_us=%.1f put_p99_us=%.1f (median of %d slices' p99) get_samples=%.0f put_samples=%.0f failed_frac=%g\n",
		d["get_p99_us"], d["put_p99_us"], int(d["p99_slices"]), d["get_samples"], d["put_samples"], d["failed_frac"])
	if o.traced {
		fmt.Fprintf(out, "   tracer stages (internal/trace, sample every request):\n")
		for _, st := range res.Stages {
			fmt.Fprintf(out, "     %-24s spans=%-5d median=%9.0f ns total=%12.0f ns\n", st.Stage, st.Spans, st.MedianNs, st.TotalNs)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(out, "   note: %s\n", n)
	}
}

// resultLine is the last line of standard output for one workload.
func resultLine(res workloadResult, traced bool) string {
	metrics := res.EndToEnd
	if traced {
		metrics = res.PerLayer
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line)
}

// runSuite runs each workload once and returns the result file.
func runSuite(ws []spec, o options, out io.Writer) (*resultFile, error) {
	rf := &resultFile{
		GitSHA: gitSHA(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.window.Seconds(), Traced: o.traced, Quick: o.quick,
	}
	for _, w := range ws {
		run := runUntraced
		if o.traced {
			run = runTraced
		}
		res, err := run(w, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		report(out, w, res, o)
		rf.Workloads = append(rf.Workloads, res)
	}
	return rf, nil
}

func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func writeJSON(dir, name string, v any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(raw, '\n'), 0o644)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		list     = fs.String("workload", "all", "comma-separated workload names, or all")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 0, "length of the measured window of one workload, in seconds (0 = run_seconds of BENCHMARK.json)")
		traced   = fs.Int("trace", 0, "1 runs the traced run (per-layer metrics) instead of the untraced one (end-to-end metrics)")
		repeat   = fs.Int("repeat", 0, "run the untraced suite this many times and compare the sets against the bounds")
		quick    = fs.Bool("quick", false, "small key space, for the smoke test")
		spansOut = fs.String("spans-out", "", "with -trace 1, write the ladder's raw spans here as JSON lines")
		conPath  = fs.String("contract", "BENCHMARK.json", "path of BENCHMARK.json")
		outDir   = fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json and repeat.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ws, err := selectWorkloads(*list)
	if err != nil {
		return err
	}
	con, err := loadContract(*conPath)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = con.RunSeconds
	}
	o := options{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)), sz: fullSizes,
		quick: *quick, traced: *traced == 1, spansOut: *spansOut, con: con,
	}
	if o.quick {
		o.sz = quickSizes
	}
	// Two processors on any machine: every server goroutine shares them
	// with the callers.
	runtime.GOMAXPROCS(procs)
	trace.SetSampleEvery(0)

	if *repeat > 0 {
		return runRepeat(*repeat, ws, o, *outDir, out)
	}
	rf, err := runSuite(ws, o, out)
	if err != nil {
		return err
	}
	path, err := writeJSON(*outDir, "result.json", rf)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	var wrong error
	for _, res := range rf.Workloads {
		fmt.Fprintln(out, resultLine(res, o.traced))
		if !res.Correct {
			wrong = fmt.Errorf("%s: outputs are wrong: %s", res.Name, res.Mismatch)
		}
	}
	return wrong
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
