package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bespokv/internal/metrics"
)

// SLO burn-rate alerting (multi-window, Google SRE workbook style): an
// objective defines an error budget — for a latency objective "p99 GET <
// 5ms" the budget is the 1% of requests allowed over the threshold; for an
// availability objective it is MaxErrRate. The burn rate over a set of
// windows is (bad events / total events) / budget: burn 1.0 spends the
// budget exactly, burn 10 spends it 10x too fast. An alert needs BOTH a
// fast window (recent, catches regressions quickly) and a slow window
// (smooths blips) burning above the threshold, and transitions through
// pending → firing → resolved with hysteresis: firing needs HoldWindows
// consecutive burning evaluations, resolving needs ClearWindows consecutive
// evaluations below ClearFraction×threshold, and the band in between
// changes nothing — that dead zone is what prevents flapping.

// Objective is one declarative SLO. Exactly one of Threshold (latency
// objective) or MaxErrRate (availability objective) should be set.
type Objective struct {
	// Name identifies the objective in /alertz and metric labels.
	Name string `json:"name"`
	// Class is the op class the objective measures.
	Class Class `json:"class"`
	// Quantile is the latency target quantile (e.g. 0.99); the error
	// budget is 1-Quantile. Used when Threshold > 0.
	Quantile float64 `json:"quantile,omitempty"`
	// Threshold is the latency bound; fractions of ops at or above it are
	// budget spend. Resolution is one histogram sub-bucket (~25%).
	Threshold time.Duration `json:"threshold,omitempty"`
	// MaxErrRate makes this an availability objective: the budget is this
	// error-rate bound (e.g. 0.01 for 99% availability).
	MaxErrRate float64 `json:"max_err_rate,omitempty"`
	// FastWindows and SlowWindows are the two burn-rate horizons, in
	// sealed windows (defaults 3 and 12).
	FastWindows int `json:"fast_windows,omitempty"`
	SlowWindows int `json:"slow_windows,omitempty"`
	// BurnThreshold is the burn rate both horizons must reach (default 2).
	BurnThreshold float64 `json:"burn_threshold,omitempty"`
	// ClearFraction scales BurnThreshold down to the all-clear level
	// (default 0.5); burns between the two levels hold the current state.
	ClearFraction float64 `json:"clear_fraction,omitempty"`
	// HoldWindows is how many consecutive burning evaluations promote
	// pending → firing (default 2); ClearWindows how many clear
	// evaluations demote firing → resolved (default 3).
	HoldWindows  int `json:"hold_windows,omitempty"`
	ClearWindows int `json:"clear_windows,omitempty"`
}

func (o Objective) withDefaults() Objective {
	if o.Quantile <= 0 || o.Quantile >= 1 {
		o.Quantile = 0.99
	}
	if o.FastWindows <= 0 {
		o.FastWindows = 3
	}
	if o.SlowWindows <= 0 {
		o.SlowWindows = 12
	}
	if o.SlowWindows < o.FastWindows {
		o.SlowWindows = o.FastWindows
	}
	if o.BurnThreshold <= 0 {
		o.BurnThreshold = 2
	}
	if o.ClearFraction <= 0 || o.ClearFraction >= 1 {
		o.ClearFraction = 0.5
	}
	if o.HoldWindows <= 0 {
		o.HoldWindows = 2
	}
	if o.ClearWindows <= 0 {
		o.ClearWindows = 3
	}
	return o
}

// budget returns the objective's error budget as a fraction.
func (o Objective) budget() float64 {
	if o.MaxErrRate > 0 {
		return o.MaxErrRate
	}
	return 1 - o.Quantile
}

// String renders the objective's bound for human output.
func (o Objective) Bound() string {
	if o.MaxErrRate > 0 {
		return fmt.Sprintf("%s err-rate < %.2g%%", o.Class, o.MaxErrRate*100)
	}
	return fmt.Sprintf("p%.4g %s < %s", o.Quantile*100, o.Class, o.Threshold)
}

// DefaultObjectives is the out-of-the-box alerting policy the binaries
// install when none is configured.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "get-p99", Class: ClassGet, Quantile: 0.99, Threshold: 50 * time.Millisecond},
		{Name: "put-p99", Class: ClassPut, Quantile: 0.99, Threshold: 100 * time.Millisecond},
		{Name: "get-errors", Class: ClassGet, MaxErrRate: 0.01},
	}
}

// AlertState is the lifecycle position of one (objective, shard) alert.
type AlertState uint8

const (
	StateInactive AlertState = iota
	StatePending
	StateFiring
	StateResolved
)

func (s AlertState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	case StateResolved:
		return "resolved"
	default:
		return "inactive"
	}
}

// Alert is the externally visible state of one (objective, shard) pair.
type Alert struct {
	Objective string     `json:"objective"`
	Bound     string     `json:"bound"`
	Shard     string     `json:"shard"`
	State     AlertState `json:"-"`
	StateName string     `json:"state"`
	// BurnFast and BurnSlow are the latest burn rates over the two
	// horizons (1.0 = spending budget exactly on schedule).
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	// SinceMs is when the alert entered its current state.
	SinceMs int64 `json:"since_ms"`
	// Fired counts pending→firing transitions over the alert's lifetime —
	// the flap detector tests assert on.
	Fired int64 `json:"fired"`
}

// SLO engine metrics: one state gauge per (objective, shard) — bounded by
// the objective list times live shards — and a transitions counter.
var sloTransitions = func(name, to string) *metrics.Counter {
	return metrics.Default.Counter("bespokv_slo_transitions_total", "objective", name, "to", to)
}

type alertTrack struct {
	obj       Objective
	shard     string
	state     AlertState
	since     time.Time
	hold      int
	clear     int
	lastStart int64 // newest window start already evaluated
	burnFast  float64
	burnSlow  float64
	fired     int64
	gauge     *metrics.Gauge
}

// SLOEngine evaluates objectives against merged per-shard window series
// and runs the alert state machine. It is driven by the aggregator; all
// methods are safe for concurrent use.
type SLOEngine struct {
	mu         sync.Mutex
	objectives []Objective
	tracks     map[string]*alertTrack // key = objective + "\x00" + shard
}

// NewSLOEngine returns an engine enforcing the given objectives (nil means
// no alerting; see DefaultObjectives for the stock policy).
func NewSLOEngine(objectives []Objective) *SLOEngine {
	e := &SLOEngine{tracks: map[string]*alertTrack{}}
	for _, o := range objectives {
		e.objectives = append(e.objectives, o.withDefaults())
	}
	return e
}

// burnOver computes the burn rate over the trailing n windows.
func burnOver(o Objective, windows []Window, n int) float64 {
	if n > len(windows) {
		n = len(windows)
	}
	var total, bad int64
	for _, w := range windows[len(windows)-n:] {
		if o.MaxErrRate > 0 {
			total += w.Ops[o.Class]
			bad += w.Errs[o.Class]
		} else {
			// Latency objectives use the sampled histogram population so
			// numerator and denominator come from the same sample set.
			total += w.Lat[o.Class].Count
			bad += w.Lat[o.Class].CountAbove(o.Threshold)
		}
	}
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / o.budget()
}

// Evaluate feeds one shard's merged window series (oldest first, sealed
// windows only) into the state machine. State only advances when a window
// newer than the last evaluated one appears, so re-reporting the same
// windows is idempotent and hold/clear counters tick in window time.
func (e *SLOEngine) Evaluate(shard string, windows []Window, now time.Time) {
	if len(e.objectives) == 0 || len(windows) == 0 {
		return
	}
	newest := windows[len(windows)-1].StartMs
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.objectives {
		key := o.Name + "\x00" + shard
		t := e.tracks[key]
		if t == nil {
			t = &alertTrack{
				obj: o, shard: shard, since: now, lastStart: -1,
				gauge: metrics.Default.Gauge("bespokv_slo_alert_state", "objective", o.Name, "shard", shard),
			}
			e.tracks[key] = t
		}
		if newest <= t.lastStart {
			continue
		}
		t.lastStart = newest
		t.step(windows, now)
	}
}

func (t *alertTrack) step(windows []Window, now time.Time) {
	o := t.obj
	t.burnFast = burnOver(o, windows, o.FastWindows)
	t.burnSlow = burnOver(o, windows, o.SlowWindows)
	burning := t.burnFast >= o.BurnThreshold && t.burnSlow >= o.BurnThreshold
	clearLevel := o.BurnThreshold * o.ClearFraction
	cleared := t.burnFast < clearLevel && t.burnSlow < clearLevel

	switch t.state {
	case StateInactive, StateResolved:
		if burning {
			t.to(StatePending, now)
			t.hold = 1
			if t.hold >= o.HoldWindows {
				t.fire(now)
			}
		} else if t.state == StateResolved && cleared {
			t.clear++
			// A resolved alert quietly retires after it has stayed clear
			// as long as it took to resolve.
			if t.clear >= 2*o.ClearWindows {
				t.to(StateInactive, now)
			}
		}
	case StatePending:
		if burning {
			t.hold++
			if t.hold >= o.HoldWindows {
				t.fire(now)
			}
		} else if cleared {
			// Never actually fired: cancel rather than resolve.
			t.to(StateInactive, now)
		}
		// In the dead zone: hold at pending, counter unchanged.
	case StateFiring:
		if cleared {
			t.clear++
			if t.clear >= o.ClearWindows {
				t.to(StateResolved, now)
			}
		} else {
			t.clear = 0
		}
	}
}

func (t *alertTrack) fire(now time.Time) {
	t.to(StateFiring, now)
	t.fired++
}

func (t *alertTrack) to(s AlertState, now time.Time) {
	if t.state == s {
		return
	}
	t.state = s
	t.since = now
	t.hold = 0
	t.clear = 0
	t.gauge.Set(int64(s))
	sloTransitions(t.obj.Name, s.String()).Inc()
}

// Alerts returns every non-inactive track, firing first, then pending,
// then resolved, each group sorted by objective and shard.
func (e *SLOEngine) Alerts() []Alert {
	e.mu.Lock()
	out := make([]Alert, 0, len(e.tracks))
	for _, t := range e.tracks {
		if t.state == StateInactive {
			continue
		}
		out = append(out, Alert{
			Objective: t.obj.Name,
			Bound:     t.obj.Bound(),
			Shard:     t.shard,
			State:     t.state,
			StateName: t.state.String(),
			BurnFast:  t.burnFast,
			BurnSlow:  t.burnSlow,
			SinceMs:   t.since.UnixMilli(),
			Fired:     t.fired,
		})
	}
	e.mu.Unlock()
	rank := func(s AlertState) int {
		switch s {
		case StateFiring:
			return 0
		case StatePending:
			return 1
		default:
			return 2
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if rank(out[i].State) != rank(out[j].State) {
			return rank(out[i].State) < rank(out[j].State)
		}
		if out[i].Objective != out[j].Objective {
			return out[i].Objective < out[j].Objective
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}
