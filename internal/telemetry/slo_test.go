package telemetry

import (
	"testing"
	"time"

	"bespokv/internal/metrics"
)

// latWindow builds a sealed window with good ops at ~1ms and bad ops at
// ~100ms for ClassGet.
func latWindow(seq uint64, startMs int64, good, bad int64) Window {
	var h metrics.Histogram
	for i := int64(0); i < good; i++ {
		h.Observe(time.Millisecond)
	}
	for i := int64(0); i < bad; i++ {
		h.Observe(100 * time.Millisecond)
	}
	w := Window{Seq: seq, StartMs: startMs, DurMs: 100}
	w.Ops[ClassGet] = good + bad
	w.Lat[ClassGet] = deltaHist(&h, new(metrics.Histogram))
	return w
}

func errWindow(seq uint64, startMs int64, ops, errs int64) Window {
	w := Window{Seq: seq, StartMs: startMs, DurMs: 100}
	w.Ops[ClassGet] = ops
	w.Errs[ClassGet] = errs
	return w
}

func getObjective() Objective {
	return Objective{
		Name: "get-p99", Class: ClassGet, Quantile: 0.99,
		Threshold:   10 * time.Millisecond,
		FastWindows: 2, SlowWindows: 4, BurnThreshold: 2,
		HoldWindows: 2, ClearWindows: 2,
	}
}

// feed appends w and evaluates the full series, as the aggregator does.
type sloHarness struct {
	e       *SLOEngine
	windows []Window
	now     time.Time
}

func newSLOHarness(obj Objective) *sloHarness {
	return &sloHarness{e: NewSLOEngine([]Objective{obj}), now: time.UnixMilli(0)}
}

func (h *sloHarness) feed(w Window) {
	h.windows = append(h.windows, w)
	h.now = h.now.Add(100 * time.Millisecond)
	h.e.Evaluate("s0", h.windows, h.now)
}

func (h *sloHarness) state() AlertState {
	for _, a := range h.e.Alerts() {
		return a.State
	}
	return StateInactive
}

func TestSLOLifecyclePendingFiringResolved(t *testing.T) {
	h := newSLOHarness(getObjective())
	start := int64(0)
	seq := uint64(0)
	next := func(good, bad int64) Window {
		seq++
		start += 100
		return latWindow(seq, start, good, bad)
	}

	// Healthy baseline: everything at 1ms.
	for i := 0; i < 4; i++ {
		h.feed(next(100, 0))
		if got := h.state(); got != StateInactive {
			t.Fatalf("healthy baseline produced %v", got)
		}
	}
	// Regression: half the ops over threshold → burn = 0.5/0.01 = 50.
	h.feed(next(50, 50))
	if got := h.state(); got != StatePending {
		t.Fatalf("after 1 burning window: %v, want pending", got)
	}
	h.feed(next(50, 50))
	if got := h.state(); got != StateFiring {
		t.Fatalf("after HoldWindows burning windows: %v, want firing", got)
	}
	// Still burning: stays firing, no re-fire.
	h.feed(next(50, 50))
	if got := h.state(); got != StateFiring {
		t.Fatalf("sustained burn: %v", got)
	}
	// Recovery. Slow window (4) still contains bad history at first; the
	// clear counter must only start once both horizons are clear.
	for i := 0; i < 6; i++ {
		h.feed(next(100, 0))
	}
	if got := h.state(); got != StateResolved {
		t.Fatalf("after recovery: %v, want resolved", got)
	}
	alerts := h.e.Alerts()
	if len(alerts) != 1 || alerts[0].Fired != 1 {
		t.Fatalf("fired count = %+v, want exactly one firing transition", alerts)
	}
	// Retires to inactive after staying clear.
	for i := 0; i < 6; i++ {
		h.feed(next(100, 0))
	}
	if got := h.state(); got != StateInactive {
		t.Fatalf("resolved alert never retired: %v", got)
	}
}

func TestSLOPendingCancelsWithoutFiring(t *testing.T) {
	// HoldWindows > FastWindows so a one-window blip goes pending but
	// slides out of the fast horizon before it can fire.
	obj := getObjective()
	obj.FastWindows = 1
	obj.HoldWindows = 3
	h := newSLOHarness(obj)
	h.feed(latWindow(1, 100, 100, 0))
	h.feed(latWindow(2, 200, 50, 50)) // one bad window → pending
	if got := h.state(); got != StatePending {
		t.Fatalf("state = %v", got)
	}
	for i := 0; i < 5; i++ {
		h.feed(latWindow(uint64(3+i), int64(300+100*i), 100, 0))
	}
	if got := h.state(); got != StateInactive {
		t.Fatalf("blip should cancel pending without firing: %v", got)
	}
	if alerts := h.e.Alerts(); len(alerts) != 0 {
		t.Fatalf("cancelled pending still listed: %+v", alerts)
	}
}

func TestSLOHysteresisDeadZone(t *testing.T) {
	// Burn oscillating inside the dead zone (between clear level 1.0 and
	// threshold 2.0) must not flap a firing alert.
	obj := getObjective()
	h := newSLOHarness(obj)
	seq, start := uint64(0), int64(0)
	next := func(good, bad int64) Window {
		seq++
		start += 100
		return latWindow(seq, start, good, bad)
	}
	// Drive to firing.
	h.feed(next(50, 50))
	h.feed(next(50, 50))
	if h.state() != StateFiring {
		t.Fatalf("setup: %v", h.state())
	}
	// Dead zone: burn ≈ 1.5 (1.5% bad / 1% budget) — neither burning nor
	// clear. Hold firing through many evaluations.
	for i := 0; i < 10; i++ {
		h.feed(next(985, 15))
		if got := h.state(); got != StateFiring {
			t.Fatalf("dead-zone eval %d flapped to %v", i, got)
		}
	}
	if alerts := h.e.Alerts(); alerts[0].Fired != 1 {
		t.Fatalf("fired %d times, want 1", alerts[0].Fired)
	}
}

func TestSLOAvailabilityObjective(t *testing.T) {
	obj := Objective{
		Name: "get-errors", Class: ClassGet, MaxErrRate: 0.01,
		FastWindows: 2, SlowWindows: 2, BurnThreshold: 2,
		HoldWindows: 1, ClearWindows: 1,
	}
	h := newSLOHarness(obj)
	h.feed(errWindow(1, 100, 1000, 0))
	if h.state() != StateInactive {
		t.Fatalf("clean window: %v", h.state())
	}
	// 10% errors → burn 10.
	h.feed(errWindow(2, 200, 1000, 100))
	h.feed(errWindow(3, 300, 1000, 100))
	if h.state() != StateFiring {
		t.Fatalf("error storm: %v", h.state())
	}
}

func TestSLOEvaluateIdempotentPerWindow(t *testing.T) {
	// Re-evaluating the same window series (as every heartbeat re-report
	// does) must not advance hold/clear counters.
	obj := getObjective()
	e := NewSLOEngine([]Objective{obj})
	windows := []Window{latWindow(1, 100, 50, 50)}
	now := time.UnixMilli(1000)
	for i := 0; i < 5; i++ {
		e.Evaluate("s0", windows, now.Add(time.Duration(i)*time.Millisecond))
	}
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].State != StatePending {
		t.Fatalf("re-evaluating one window fired: %+v", alerts)
	}
}

func TestSLOEmptyWindowsNoBurn(t *testing.T) {
	// Zero-traffic windows have burn 0: no alert from silence.
	h := newSLOHarness(getObjective())
	for i := 0; i < 6; i++ {
		h.feed(Window{Seq: uint64(i + 1), StartMs: int64(100 * (i + 1)), DurMs: 100})
	}
	if got := h.state(); got != StateInactive {
		t.Fatalf("empty windows alerted: %v", got)
	}
}

func TestObjectiveDefaults(t *testing.T) {
	o := Objective{Name: "x", Class: ClassGet, Threshold: time.Millisecond}.withDefaults()
	if o.Quantile != 0.99 || o.FastWindows != 3 || o.SlowWindows != 12 ||
		o.BurnThreshold != 2 || o.HoldWindows != 2 || o.ClearWindows != 3 {
		t.Fatalf("defaults: %+v", o)
	}
	if b := o.budget(); b < 0.0099 || b > 0.0101 {
		t.Fatalf("budget = %v", b)
	}
	av := Objective{Name: "y", Class: ClassGet, MaxErrRate: 0.05}.withDefaults()
	if av.budget() != 0.05 {
		t.Fatalf("availability budget = %v", av.budget())
	}
}
