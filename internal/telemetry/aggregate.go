package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"bespokv/internal/metrics"
)

// Aggregator is the coordinator-side collector: controlets push
// NodeSnapshots over the TelemetryReport RPC (riding the heartbeat
// connection), the aggregator keeps the latest snapshot per node, and all
// cluster views are merged on demand from those snapshots. Because each
// snapshot carries its full recent-window ring, re-reports are idempotent
// and a restarted coordinator repopulates within one report interval.
//
// Merge semantics: windows from a shard's replicas are binned by aligned
// start time (floor(start/width)*width); a window whose boundaries straddle
// a bin contributes wholly to the bin containing its start, smearing at
// most one window width. Cross-replica sums never double-count a client op:
// shard rates count client-entry classes only, and a recorder classes
// replication traffic — at a datalet, every op but a direct read — as
// ClassOther, which shows in ClassRates alone.
type Aggregator struct {
	opts AggregatorOptions
	slo  *SLOEngine

	mu    sync.Mutex
	nodes map[string]*nodeRec
}

// AggregatorOptions configures the collector.
type AggregatorOptions struct {
	// StaleAfter marks a node stale when no report arrived within it
	// (default 3s — several heartbeat intervals at production defaults).
	StaleAfter time.Duration
	// Objectives is the SLO policy (nil disables alerting).
	Objectives []Objective
	// TopK bounds hot-key lists in cluster views (default 10).
	TopK int
	// RateWindows is how many trailing sealed bins rate figures average
	// over (default 5).
	RateWindows int
	// Now overrides the clock (tests).
	Now func() time.Time
}

type nodeRec struct {
	snap       NodeSnapshot
	lastReport time.Time
	restarts   int
}

var (
	aggReports = metrics.Default.Counter("bespokv_telemetry_reports_total")
	aggNodes   = metrics.Default.Gauge("bespokv_telemetry_nodes")
)

// NewAggregator returns a collector enforcing opts.Objectives.
func NewAggregator(opts AggregatorOptions) *Aggregator {
	if opts.StaleAfter <= 0 {
		opts.StaleAfter = 3 * time.Second
	}
	if opts.TopK <= 0 {
		opts.TopK = 10
	}
	if opts.RateWindows <= 0 {
		opts.RateWindows = 5
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Aggregator{
		opts:  opts,
		slo:   NewSLOEngine(opts.Objectives),
		nodes: map[string]*nodeRec{},
	}
}

// SLO exposes the engine (for /alertz).
func (a *Aggregator) SLO() *SLOEngine { return a.slo }

// Report ingests node snapshots and advances SLO evaluation. A BootID
// change marks a restart: the node's history simply restarts (cumulative
// totals come from the new boot only — merged rates are window deltas, so
// they never go negative across the reset).
func (a *Aggregator) Report(snaps ...NodeSnapshot) {
	now := a.opts.Now()
	a.mu.Lock()
	for _, s := range snaps {
		if s.Node == "" {
			continue
		}
		key := s.Node + "/" + s.Role
		rec := a.nodes[key]
		if rec == nil {
			rec = &nodeRec{}
			a.nodes[key] = rec
		} else if rec.snap.BootID != 0 && rec.snap.BootID != s.BootID {
			rec.restarts++
		}
		rec.snap = s
		rec.lastReport = now
		aggReports.Inc()
	}
	aggNodes.Set(int64(len(a.nodes)))
	views := a.mergeShardsLocked(now)
	a.mu.Unlock()
	for shard, v := range views {
		a.slo.Evaluate(shard, v.windows, now)
	}
}

// shardMerge is the internal merged view of one shard.
type shardMerge struct {
	windows []Window // merged bins, oldest first, sealed only
	nodes   []NodeSnapshot
}

// mergeShardsLocked bins every known node's windows per shard. Bins whose
// end is too recent for every replica to have reported into them (within
// half a window width of now) are excluded so the SLO engine never judges
// a half-merged bin.
func (a *Aggregator) mergeShardsLocked(now time.Time) map[string]*shardMerge {
	out := map[string]*shardMerge{}
	for _, rec := range a.nodes {
		s := rec.snap
		if s.Shard == "" {
			continue
		}
		m := out[s.Shard]
		if m == nil {
			m = &shardMerge{}
			out[s.Shard] = m
		}
		m.nodes = append(m.nodes, s)
	}
	for _, m := range out {
		bins := map[int64]*Window{}
		var width int64
		for _, s := range m.nodes {
			for _, w := range s.Windows {
				if w.DurMs <= 0 {
					continue
				}
				if width == 0 || w.DurMs < width {
					width = w.DurMs
				}
				start := w.StartMs - w.StartMs%w.DurMs
				b := bins[start]
				if b == nil {
					b = &Window{StartMs: start, DurMs: w.DurMs}
					bins[start] = b
				}
				for c := 0; c < int(ClassCount); c++ {
					b.Ops[c] += w.Ops[c]
					b.Errs[c] += w.Errs[c]
					b.Lat[c].Merge(w.Lat[c])
				}
			}
		}
		if width == 0 {
			continue
		}
		starts := make([]int64, 0, len(bins))
		cutoff := now.UnixMilli() - width/2
		for start := range bins {
			if start+bins[start].DurMs <= cutoff {
				starts = append(starts, start)
			}
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		for i, start := range starts {
			w := *bins[start]
			w.Seq = uint64(i + 1)
			m.windows = append(m.windows, w)
		}
	}
	return out
}

// NodeView is one node's row in the cluster view.
type NodeView struct {
	Node     string `json:"node"`
	Shard    string `json:"shard,omitempty"`
	Role     string `json:"role,omitempty"`
	Mode     string `json:"mode,omitempty"`
	Epoch    uint64 `json:"epoch,omitempty"`
	AgeMs    int64  `json:"age_ms"`
	Stale    bool   `json:"stale,omitempty"`
	Restarts int    `json:"restarts,omitempty"`
	TotalOps int64  `json:"total_ops"`
}

// ShardView is one shard's merged row, the unit `bespokv-cli top` sorts by.
type ShardView struct {
	Shard string   `json:"shard"`
	Mode  string   `json:"mode,omitempty"`
	Nodes []string `json:"nodes"`
	// OpsPerSec, ReadFrac and ErrPerSec average client-entry ops (every
	// class but ClassOther) over the trailing RateWindows merged bins.
	OpsPerSec float64 `json:"ops_per_sec"`
	ReadFrac  float64 `json:"read_frac"`
	ErrPerSec float64 `json:"err_per_sec"`
	// ClassRates is per-class ops/sec over the same horizon.
	ClassRates [ClassCount]float64 `json:"class_rates"`
	// P50Ms / P99Ms are per-class latency quantiles (ms) over the horizon;
	// 0 means no samples.
	P50Ms   [ClassCount]float64 `json:"p50_ms"`
	P99Ms   [ClassCount]float64 `json:"p99_ms"`
	HotKeys []HotKey            `json:"hot_keys,omitempty"`
}

// ClusterSnapshot is the cluster-wide view served at /clusterz.
type ClusterSnapshot struct {
	AtMs   int64       `json:"at_ms"`
	Shards []ShardView `json:"shards"` // sorted by OpsPerSec descending
	Nodes  []NodeView  `json:"nodes"`
	Alerts []Alert     `json:"alerts,omitempty"`
}

// Cluster merges the latest node snapshots into the cluster-wide view.
func (a *Aggregator) Cluster() ClusterSnapshot {
	now := a.opts.Now()
	a.mu.Lock()
	views := a.mergeShardsLocked(now)
	// Node views are built under the lock: a concurrent Report overwrites
	// rec.snap/lastReport in place, so rec pointers must not escape it.
	nodeViews := make([]NodeView, 0, len(a.nodes))
	for _, rec := range a.nodes {
		var totalOps int64
		for _, n := range rec.snap.TotalOps {
			totalOps += n
		}
		age := now.Sub(rec.lastReport)
		nodeViews = append(nodeViews, NodeView{
			Node:     rec.snap.Node,
			Shard:    rec.snap.Shard,
			Role:     rec.snap.Role,
			Mode:     rec.snap.Mode,
			Epoch:    rec.snap.Epoch,
			AgeMs:    age.Milliseconds(),
			Stale:    age > a.opts.StaleAfter,
			Restarts: rec.restarts,
			TotalOps: totalOps,
		})
	}
	a.mu.Unlock()

	snap := ClusterSnapshot{AtMs: now.UnixMilli(), Alerts: a.slo.Alerts()}
	for shard, m := range views {
		sv := ShardView{Shard: shard}
		lists := make([][]HotKey, 0, len(m.nodes))
		for _, ns := range m.nodes {
			sv.Nodes = append(sv.Nodes, ns.Node)
			if ns.Mode != "" {
				sv.Mode = ns.Mode
			}
			lists = append(lists, ns.HotKeys)
		}
		sort.Strings(sv.Nodes)
		sv.HotKeys = MergeHotKeys(a.opts.TopK, lists...)

		n := a.opts.RateWindows
		if n > len(m.windows) {
			n = len(m.windows)
		}
		var durMs, reads, total, errs int64
		var lat [ClassCount]HistSnapshot
		var classOps [ClassCount]int64
		for _, w := range m.windows[len(m.windows)-n:] {
			durMs += w.DurMs
			for c := Class(0); c < ClassCount; c++ {
				classOps[c] += w.Ops[c]
				lat[c].Merge(w.Lat[c])
				if c == ClassOther {
					continue
				}
				total += w.Ops[c]
				errs += w.Errs[c]
				if c.Read() {
					reads += w.Ops[c]
				}
			}
		}
		if durMs > 0 {
			secs := float64(durMs) / 1000
			sv.OpsPerSec = float64(total) / secs
			sv.ErrPerSec = float64(errs) / secs
			for c := Class(0); c < ClassCount; c++ {
				sv.ClassRates[c] = float64(classOps[c]) / secs
			}
		}
		if total > 0 {
			sv.ReadFrac = float64(reads) / float64(total)
		}
		for c := Class(0); c < ClassCount; c++ {
			if lat[c].Count > 0 {
				sv.P50Ms[c] = float64(lat[c].Quantile(0.50)) / float64(time.Millisecond)
				sv.P99Ms[c] = float64(lat[c].Quantile(0.99)) / float64(time.Millisecond)
			}
		}
		snap.Shards = append(snap.Shards, sv)
	}
	sort.Slice(snap.Shards, func(i, j int) bool {
		if snap.Shards[i].OpsPerSec != snap.Shards[j].OpsPerSec {
			return snap.Shards[i].OpsPerSec > snap.Shards[j].OpsPerSec
		}
		return snap.Shards[i].Shard < snap.Shards[j].Shard
	})

	snap.Nodes = nodeViews
	sort.Slice(snap.Nodes, func(i, j int) bool {
		if snap.Nodes[i].Node != snap.Nodes[j].Node {
			return snap.Nodes[i].Node < snap.Nodes[j].Node
		}
		return snap.Nodes[i].Role < snap.Nodes[j].Role
	})
	return snap
}

// Text renders the snapshot for terminals — the same output `bespokv-cli
// top` prints and /clusterz?format=text serves.
func (s ClusterSnapshot) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster @ %s\n", time.UnixMilli(s.AtMs).Format("15:04:05.000"))

	b.WriteString("\nSHARDS (by load)\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SHARD\tMODE\tOPS/S\tERR/S\tREAD%\tGET p50/p99 ms\tPUT p50/p99 ms\tNODES")
	for _, sv := range s.Shards {
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.1f\t%.0f\t%.2f/%.2f\t%.2f/%.2f\t%s\n",
			sv.Shard, sv.Mode, sv.OpsPerSec, sv.ErrPerSec, sv.ReadFrac*100,
			sv.P50Ms[ClassGet], sv.P99Ms[ClassGet],
			sv.P50Ms[ClassPut], sv.P99Ms[ClassPut],
			strings.Join(sv.Nodes, ","))
	}
	tw.Flush()

	b.WriteString("\nHOT KEYS\n")
	tw = tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SHARD\tKEY\tCOUNT\t±ERR")
	for _, sv := range s.Shards {
		for i, hk := range sv.HotKeys {
			if i >= 5 {
				break
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n", sv.Shard, hk.Key, hk.Count, hk.Err)
		}
	}
	tw.Flush()

	b.WriteString("\nALERTS\n")
	if len(s.Alerts) == 0 {
		b.WriteString("  none\n")
	} else {
		tw = tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "STATE\tOBJECTIVE\tSHARD\tBURN fast/slow\tSINCE")
		for _, al := range s.Alerts {
			fmt.Fprintf(tw, "%s\t%s (%s)\t%s\t%.1f/%.1f\t%s\n",
				strings.ToUpper(al.StateName), al.Objective, al.Bound, al.Shard,
				al.BurnFast, al.BurnSlow, time.UnixMilli(al.SinceMs).Format("15:04:05"))
		}
		tw.Flush()
	}

	b.WriteString("\nNODES\n")
	tw = tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tROLE\tSHARD\tEPOCH\tAGE ms\tOPS\tRESTARTS\tSTATE")
	for _, nv := range s.Nodes {
		state := "live"
		if nv.Stale {
			state = "STALE"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%s\n",
			nv.Node, nv.Role, nv.Shard, nv.Epoch, nv.AgeMs, nv.TotalOps, nv.Restarts, state)
	}
	tw.Flush()
	return b.String()
}
