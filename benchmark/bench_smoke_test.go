package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload and every ladder rung at -quick sizes for
// 200 ms each way, so `go test` keeps guarding the benchmark: every workload
// and metric BENCHMARK.json names must come out with a finite value, outputs
// must verify, and no residual self time may be negative.
func TestSmoke(t *testing.T) {
	const contractPath = "../BENCHMARK.json"
	raw, err := os.ReadFile(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	var con struct {
		Workloads []struct{ Name string }
		contract
	}
	if err := json.Unmarshal(raw, &con); err != nil {
		t.Fatal(err)
	}
	if len(con.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(con.Workloads), len(workloads))
	}
	for i, w := range con.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the benchmark %s", i, w.Name, workloads[i].name)
		}
	}

	dir := t.TempDir()
	for _, traced := range []string{"0", "1"} {
		var out bytes.Buffer
		err := run([]string{"-quick", "-seconds", "0.2", "-trace", traced, "-contract", contractPath, "-out", dir}, &out)
		if err != nil {
			t.Fatalf("-trace %s: %v\n%s", traced, err, out.String())
		}
		raw, err := os.ReadFile(filepath.Join(dir, "result.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rf resultFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			t.Fatal(err)
		}
		if len(rf.Workloads) != len(workloads) {
			t.Fatalf("-trace %s: result.json has %d workloads, want %d", traced, len(rf.Workloads), len(workloads))
		}
		want, got := con.EndToEnd, func(r workloadResult) map[string]metric { return r.EndToEnd }
		if traced == "1" {
			want, got = con.PerLayer, func(r workloadResult) map[string]metric { return r.PerLayer }
		}
		for _, res := range rf.Workloads {
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d %s", res.Name, res.Correct, res.Attempted, res.Failed, res.Mismatch)
			}
			metrics := got(res)
			if len(metrics) != len(want) {
				t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", res.Name, len(metrics), len(want))
			}
			for _, cm := range want {
				// pick already refused NaN and Inf; JSON cannot carry them.
				m, ok := metrics[cm.Name]
				if !ok {
					t.Errorf("%s: metric %s missing from result.json", res.Name, cm.Name)
				}
				if strings.HasSuffix(cm.Name, "_self_ns") && m.Value < 0 {
					t.Errorf("%s: residual %s = %.0f ns is negative", res.Name, cm.Name, m.Value)
				}
			}
		}
		// The last line of output is the last workload's result object.
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct   bool
			Attempted int64
			Metrics   map[string]metric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Correct || len(last.Metrics) != len(want) {
			t.Errorf("-trace %s: last line %q: %v", traced, lines[len(lines)-1], err)
		}
	}
}
