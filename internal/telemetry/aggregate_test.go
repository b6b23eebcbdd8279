package telemetry

import (
	"strings"
	"testing"
	"time"
)

// testClock is a controllable Now for aggregator tests.
type testClock struct{ t time.Time }

func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// nodeSnap builds a minimal snapshot for node/shard with the given sealed
// windows.
func nodeSnap(node, shard string, bootID uint64, windows ...Window) NodeSnapshot {
	s := NodeSnapshot{
		Info:       Info{Node: node, Shard: shard, Role: "controlet", Mode: "MS+SC"},
		BootID:     bootID,
		IntervalMs: 100,
		Windows:    windows,
	}
	for _, w := range windows {
		for c := 0; c < int(ClassCount); c++ {
			s.TotalOps[c] += w.Ops[c]
			s.TotalErrs[c] += w.Errs[c]
		}
	}
	return s
}

func getsWindow(seq uint64, startMs, gets int64) Window {
	w := Window{Seq: seq, StartMs: startMs, DurMs: 100}
	w.Ops[ClassGet] = gets
	return w
}

func TestAggregatorMergesReplicaWindows(t *testing.T) {
	clk := &testClock{t: time.UnixMilli(10_000)}
	a := NewAggregator(AggregatorOptions{Now: clk.now, StaleAfter: time.Second})

	// Two replicas of shard s0 with offset window starts that land in the
	// same aligned bins, plus a cold shard s1.
	a.Report(
		nodeSnap("n1", "s0", 1, getsWindow(1, 9_000, 300), getsWindow(2, 9_100, 300)),
		nodeSnap("n2", "s0", 2, getsWindow(1, 9_020, 100), getsWindow(2, 9_120, 100)),
		nodeSnap("n3", "s1", 3, getsWindow(1, 9_000, 10), getsWindow(2, 9_100, 10)),
	)
	snap := a.Cluster()
	if len(snap.Shards) != 2 {
		t.Fatalf("shards = %d", len(snap.Shards))
	}
	// Hot shard first.
	if snap.Shards[0].Shard != "s0" || snap.Shards[1].Shard != "s1" {
		t.Fatalf("not sorted by load: %s, %s", snap.Shards[0].Shard, snap.Shards[1].Shard)
	}
	// s0 merged: (300+100)*2 ops over 2 bins of 100ms → 4000 ops/s.
	if got := snap.Shards[0].OpsPerSec; got < 3900 || got > 4100 {
		t.Fatalf("s0 ops/s = %v", got)
	}
	if got := snap.Shards[0].ReadFrac; got != 1 {
		t.Fatalf("read frac = %v", got)
	}
	if len(snap.Shards[0].Nodes) != 2 {
		t.Fatalf("s0 nodes = %v", snap.Shards[0].Nodes)
	}
}

// Replication is ClassOther: it shows in ClassRates, never in a shard's
// client-op rate, error rate or read mix.
func TestAggregatorRatesCountClientOpsOnly(t *testing.T) {
	clk := &testClock{t: time.UnixMilli(10_000)}
	a := NewAggregator(AggregatorOptions{Now: clk.now})
	// A 1×3 MS+SC shard at a 50 % GET mix over one 100 ms window: the head
	// takes 50 PUTs (one failed), the tail 50 GETs, and each PUT reaches the
	// middle and the tail again as a chain forward (three of which failed).
	head := Window{Seq: 1, StartMs: 9_000, DurMs: 100}
	head.Ops[ClassPut], head.Errs[ClassPut] = 50, 1
	mid := Window{Seq: 1, StartMs: 9_000, DurMs: 100}
	mid.Ops[ClassOther], mid.Errs[ClassOther] = 50, 3
	tail := Window{Seq: 1, StartMs: 9_000, DurMs: 100}
	tail.Ops[ClassGet], tail.Ops[ClassOther] = 50, 50
	a.Report(nodeSnap("n1", "s0", 1, head), nodeSnap("n2", "s0", 2, mid), nodeSnap("n3", "s0", 3, tail))
	sv := a.Cluster().Shards[0]
	if sv.OpsPerSec != 1000 || sv.ReadFrac != 0.5 || sv.ErrPerSec != 10 {
		t.Fatalf("ops/s %v, read frac %v, err/s %v; want 1000, 0.5, 10", sv.OpsPerSec, sv.ReadFrac, sv.ErrPerSec)
	}
	if got := sv.ClassRates[ClassOther]; got != 1000 {
		t.Fatalf("replication rate %v, want 1000", got)
	}
}

func TestAggregatorStaleNode(t *testing.T) {
	clk := &testClock{t: time.UnixMilli(0)}
	a := NewAggregator(AggregatorOptions{Now: clk.now, StaleAfter: 500 * time.Millisecond})
	a.Report(nodeSnap("n1", "s0", 1))
	a.Report(nodeSnap("n2", "s0", 2))
	clk.advance(300 * time.Millisecond)
	a.Report(nodeSnap("n2", "s0", 2)) // n2 keeps reporting, n1 goes quiet
	clk.advance(300 * time.Millisecond)
	snap := a.Cluster()
	byNode := map[string]NodeView{}
	for _, nv := range snap.Nodes {
		byNode[nv.Node] = nv
	}
	if !byNode["n1"].Stale {
		t.Fatalf("n1 should be stale: %+v", byNode["n1"])
	}
	if byNode["n2"].Stale {
		t.Fatalf("n2 should be live: %+v", byNode["n2"])
	}
	if !strings.Contains(snap.Text(), "STALE") {
		t.Fatal("text rendering does not flag the stale node")
	}
}

func TestAggregatorCounterResetOnRestart(t *testing.T) {
	clk := &testClock{t: time.UnixMilli(10_000)}
	a := NewAggregator(AggregatorOptions{Now: clk.now})

	a.Report(nodeSnap("n1", "s0", 111, getsWindow(5, 9_000, 500), getsWindow(6, 9_100, 500)))
	clk.advance(time.Second)
	// Restart: new boot ID, seq restarts at 1, cumulative totals drop.
	a.Report(nodeSnap("n1", "s0", 222, getsWindow(1, 10_500, 50)))
	snap := a.Cluster()
	var nv NodeView
	for _, n := range snap.Nodes {
		if n.Node == "n1" {
			nv = n
		}
	}
	if nv.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", nv.Restarts)
	}
	if nv.TotalOps != 50 {
		t.Fatalf("totals after reset = %d, want post-boot 50", nv.TotalOps)
	}
	// Rates come from window deltas only: never negative despite the drop.
	for _, sv := range snap.Shards {
		if sv.OpsPerSec < 0 || sv.ErrPerSec < 0 {
			t.Fatalf("negative rate after counter reset: %+v", sv)
		}
	}
}

func TestAggregatorExcludesHalfMergedBin(t *testing.T) {
	// A bin whose end is within half a window of now may still be missing
	// replica contributions and must not reach the SLO engine or rates.
	clk := &testClock{t: time.UnixMilli(10_050)}
	a := NewAggregator(AggregatorOptions{Now: clk.now, RateWindows: 1})
	a.Report(nodeSnap("n1", "s0", 1,
		getsWindow(1, 9_900, 100),  // sealed: end 10_000 <= 10_050-50
		getsWindow(2, 10_000, 900), // too fresh: end 10_100 > 10_000
	))
	snap := a.Cluster()
	if len(snap.Shards) != 1 {
		t.Fatalf("shards = %d", len(snap.Shards))
	}
	// Rate must reflect the sealed bin (1000 ops/s), not the fresh one.
	if got := snap.Shards[0].OpsPerSec; got < 900 || got > 1100 {
		t.Fatalf("ops/s = %v, want ~1000 from the sealed bin only", got)
	}
}

func TestAggregatorHotKeysMergedAcrossReplicas(t *testing.T) {
	clk := &testClock{t: time.UnixMilli(10_000)}
	a := NewAggregator(AggregatorOptions{Now: clk.now, TopK: 3})
	s1 := nodeSnap("n1", "s0", 1, getsWindow(1, 9_000, 10))
	s1.HotKeys = []HotKey{{Key: "k-hot", Count: 100}, {Key: "k-warm", Count: 20}}
	s2 := nodeSnap("n2", "s0", 2, getsWindow(1, 9_000, 10))
	s2.HotKeys = []HotKey{{Key: "k-hot", Count: 80}, {Key: "k-cool", Count: 10}}
	a.Report(s1, s2)
	snap := a.Cluster()
	hk := snap.Shards[0].HotKeys
	if len(hk) != 3 || hk[0].Key != "k-hot" || hk[0].Count != 180 {
		t.Fatalf("merged hot keys: %+v", hk)
	}
}

func TestAggregatorDrivesSLO(t *testing.T) {
	clk := &testClock{t: time.UnixMilli(1_000)}
	a := NewAggregator(AggregatorOptions{
		Now: clk.now,
		Objectives: []Objective{{
			Name: "get-p99", Class: ClassGet, Threshold: 10 * time.Millisecond,
			FastWindows: 2, SlowWindows: 2, BurnThreshold: 2,
			HoldWindows: 1, ClearWindows: 1,
		}},
	})
	// Two bad windows, well sealed in the past.
	a.Report(nodeSnap("n1", "s0", 1,
		latWindow(1, 500, 50, 50),
		latWindow(2, 600, 50, 50),
	))
	snap := a.Cluster()
	if len(snap.Alerts) != 1 || snap.Alerts[0].State != StateFiring {
		t.Fatalf("alerts = %+v, want firing", snap.Alerts)
	}
	if !strings.Contains(snap.Text(), "FIRING") {
		t.Fatal("text rendering missing the firing alert")
	}
}

func TestClusterSnapshotTextSmoke(t *testing.T) {
	var s ClusterSnapshot
	out := s.Text()
	for _, want := range []string{"SHARDS", "HOT KEYS", "ALERTS", "NODES", "none"} {
		if !strings.Contains(out, want) {
			t.Fatalf("empty snapshot text missing %q:\n%s", want, out)
		}
	}
}
