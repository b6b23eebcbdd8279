package obs_test

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bespokv/internal/client"
	"bespokv/internal/cluster"
	"bespokv/internal/obs"
	"bespokv/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_series.golden from this run")

// addrLabel matches a label value that names an address (an rsm member):
// those differ from run to run, the series do not.
var addrLabel = regexp.MustCompile(`="(inproc-[0-9]+|[^"]*[:/][^"]*)"`)

// byTiming matches the series a scrape may or may not have yet, depending
// on how far the cluster got: the rpc layer's per-method series (a map
// watch's first poll) and the SLO alert states (the aggregator's first
// sealed window).
var byTiming = regexp.MustCompile(`method="|bespokv_slo_alert_state`)

// seriesSet returns the scrape's # TYPE lines and series identities (name
// and labels, no values), sorted, with address-valued labels blanked and
// the series byTiming left out.
func seriesSet(body string) []string {
	seen := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "", byTiming.MatchString(line):
			continue
		case strings.HasPrefix(line, "# TYPE "):
		default:
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		seen[addrLabel.ReplaceAllString(line, `="<addr>"`)] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// promValues maps every sample line's series to its value.
func promValues(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsSeriesGolden drives one op of every client kind through a 1×3
// MS+SC cluster and checks the /metrics exposition three ways: its set of
// series is the committed one, a datalet counts every replica's PUT exactly
// once, and restarting a node sends no op counter backwards.
func TestMetricsSeriesGolden(t *testing.T) {
	c, err := cluster.Start(cluster.Options{Engine: "lsm", Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	o, err := obs.Serve("127.0.0.1:0", obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	cli, err := c.ClientConfig(client.Config{DirectReads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// One op of each kind: point ops, a scan, both multi-ops, and the
	// direct reads (single and coalesced) a DirectReads client sends an
	// eventual read as.
	k := []byte("k")
	if err := cli.Put("", k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Get("", k); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.GetLevel("", k, wire.LevelEventual); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.GetRange("", []byte("a"), []byte("z"), 10); err != nil {
		t.Fatal(err)
	}
	pairs := []wire.KV{{Key: []byte("m1"), Value: []byte("1")}, {Key: []byte("m2"), Value: []byte("2")}}
	if _, err := cli.MultiPut("", pairs); err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{[]byte("m1"), []byte("m2")}
	if _, err := cli.MultiGet("", keys); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.MultiGetLevel("", keys, wire.LevelEventual); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Del("", k); err != nil {
		t.Fatal(err)
	}

	body := httpGet(t, o.Addr(), "/metrics")
	got := strings.Join(seriesSet(body), "\n") + "\n"
	const golden = "testdata/metrics_series.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gotSet, wantSet := map[string]bool{}, map[string]bool{}
		for _, s := range strings.Split(got, "\n") {
			gotSet[s] = true
		}
		for _, s := range strings.Split(string(want), "\n") {
			wantSet[s] = true
		}
		for s := range wantSet {
			if !gotSet[s] {
				t.Errorf("series gone: %s", s)
			}
		}
		for s := range gotSet {
			if !wantSet[s] {
				t.Errorf("series new: %s", s)
			}
		}
	}

	// Every replica's datalet applies each PUT once: N PUTs are 3N.
	const putSeries = `bespokv_datalet_ops_total{op="PUT"}`
	before := promValues(t, body)[putSeries]
	const n = 20
	for i := 0; i < n; i++ {
		if err := cli.Put("", []byte(fmt.Sprintf("p%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	beforeRestart := promValues(t, httpGet(t, o.Addr(), "/metrics"))
	if d := beforeRestart[putSeries] - before; d != 3*n {
		t.Errorf("%d PUTs raised %s by %v, want %d", n, putSeries, d, 3*n)
	}

	// A restarted node's servers are new; its old ones' counts stay in.
	if err := c.Crash(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart(0, 2); err != nil {
		t.Fatal(err)
	}
	after := promValues(t, httpGet(t, o.Addr(), "/metrics"))
	for s, v := range beforeRestart {
		if !strings.Contains(s, "_ops_total{") && !strings.Contains(s, "_op_seconds_count{") {
			continue
		}
		if after[s] < v {
			t.Errorf("%s went backwards across a restart: %v -> %v", s, v, after[s])
		}
	}
}
