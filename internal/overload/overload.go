// Package overload implements the cluster's overload-control primitives:
// admission lanes, a CoDel-style queue-delay shedder behind a per-listener
// inflight cap, a token-bucket retry budget, per-endpoint circuit breakers
// with jittered half-open probes, and a sustained-overload signal that
// drives graceful degradation (hedge suppression, local-replica reads).
//
// The design target is the classic congestion-collapse failure: a traffic
// spike queues unboundedly at datalets, every call blows its timeout, and
// client retries amplify the offered load until goodput collapses. Each
// primitive here cuts one link of that loop — servers shed early with a
// retryable Overloaded status instead of queueing doomed work, clients
// spend a bounded retry budget instead of amplifying, and breakers stop
// hammering endpoints that are refusing everything.
package overload

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/clock"
	"bespokv/internal/metrics"
	"bespokv/internal/wire"
)

// Lane classifies an op for admission control. The lanes are strict
// priorities: control traffic is never queued behind data ops, so a hot
// data shard cannot starve heartbeats or lease renewals into a false
// failover.
type Lane uint8

const (
	// LaneControl ops keep the cluster alive — liveness probes, epoch
	// lease grants, telemetry and stats collection. Never gated, never
	// deadline-dropped.
	LaneControl Lane = iota
	// LaneInternal ops are the server-to-server continuation of work
	// already admitted at the entry edge: chain forwards, async
	// propagation, transition handoffs, recovery/migration streams.
	// Re-gating them would double-charge admitted work (and shed the
	// middle of a chain write more often than its head), so they bypass
	// the gate; pre-ack forwards still honor their deadline budget.
	LaneInternal
	// LaneData ops are client-entry data operations — the only traffic
	// admission control applies to.
	LaneData
)

// LaneOf maps an op to its admission lane.
func LaneOf(op wire.Op) Lane {
	switch op {
	case wire.OpNop, wire.OpEpochSet, wire.OpTelemetry, wire.OpStats:
		return LaneControl
	case wire.OpChainPut, wire.OpChainDel, wire.OpChainMPut,
		wire.OpReplPut, wire.OpReplDel, wire.OpReplMPut, wire.OpHandoff,
		wire.OpExport, wire.OpDelRange:
		return LaneInternal
	default:
		return LaneData
	}
}

// Config parameterizes a Gate.
type Config struct {
	// MaxInflight caps concurrently executing data ops; requests beyond
	// it wait briefly for a slot and are shed if the wait betrays a
	// standing queue. <= 0 disables the gate (NewGate returns nil; a nil
	// Gate admits everything).
	MaxInflight int
	// Target is the CoDel sojourn target: slot waits persistently above
	// it mean a standing queue, and the shedder engages. Default 5ms.
	Target time.Duration
	// Interval is the CoDel control interval — how long sojourn must stay
	// above Target before the first shed, and the base period of the
	// shedding rate ramp. Default 100ms.
	Interval time.Duration
	// MaxWait hard-caps how long any data op waits for a slot; beyond it
	// the op is shed regardless of CoDel state. Default 4×Target.
	MaxWait time.Duration
}

// Stats is a point-in-time snapshot of a Gate for /overloadz.
type Stats struct {
	MaxInflight int    `json:"max_inflight"`
	Inflight    int    `json:"inflight"`
	Queued      int    `json:"queued"`
	Admitted    uint64 `json:"admitted"`
	ShedCoDel   uint64 `json:"shed_codel"`
	ShedWait    uint64 `json:"shed_wait"`
	Dropping    bool   `json:"dropping"`
}

// Sheds returns the total requests this gate rejected.
func (s Stats) Sheds() uint64 { return s.ShedCoDel + s.ShedWait }

// Gate is a per-listener admission controller: an inflight cap (the
// queue) plus a CoDel-style controller on slot-wait sojourn time (the
// shedder). While the gate is below its cap and the controller idle, Admit
// is one CAS on one word and its release one atomic add; only requests
// that actually wait — and the zero-wait admits that follow them until
// the controller is back at rest — pay for the clock, timers, a wake
// channel and the control law.
type Gate struct {
	// word packs the two counts every admit and release touch, so the
	// fast path is one CAS: the ops inside in the low inflightBits, the
	// admits ever made above them (modulo 2^(64-inflightBits)).
	word    atomic.Uint64
	max     uint64 // the cap, at most inflightMask
	maxWait time.Duration
	// release is what Admit hands out. It is bound once here: the method
	// value `g.free` evaluated per call would allocate per admitted op.
	release func()

	// queued counts waiters; a release that sees one leaves a token in
	// wake. Every waiter counts itself before its last look at word, and a
	// release frees its slot before it looks at queued, so either the
	// waiter sees the slot or the release sees the waiter: no wake-up is
	// lost. wake holds up to cap tokens, one per slot freed while
	// somebody waited; a token whose slot another admit took costs its
	// waiter one more look.
	queued    atomic.Int64
	wake      chan struct{}
	shedCoDel atomic.Uint64
	shedWait  atomic.Uint64

	// engaged mirrors "the controller is not at rest" (firstAbove set or
	// dropping), written by observe under mu: while it is false a zero
	// sojourn has nothing to reset, so the no-wait path skips observe —
	// and with it the clock reading and mu.
	engaged atomic.Bool

	// CoDel controller state (mu-guarded; touched only by waiters and by
	// no-wait admits while engaged).
	mu         sync.Mutex
	target     time.Duration
	interval   time.Duration
	firstAbove time.Time // when sojourn first stayed above target; zero = below
	dropping   bool
	dropNext   time.Time
	dropCount  int
}

// The layout of Gate.word.
const (
	inflightBits = 20
	inflightMask = 1<<inflightBits - 1
	admitOne     = 1<<inflightBits | 1 // one more admitted, one more inside
)

// NewGate builds a gate from cfg, or returns nil (admit-everything) when
// the cap is disabled. A cap above 2^20-1 is clamped to it.
func NewGate(cfg Config) *Gate {
	if cfg.MaxInflight <= 0 {
		return nil
	}
	if cfg.Target <= 0 {
		cfg.Target = 5 * time.Millisecond
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 4 * cfg.Target
	}
	limit := min(uint64(cfg.MaxInflight), inflightMask)
	g := &Gate{
		max:      limit,
		wake:     make(chan struct{}, limit),
		maxWait:  cfg.MaxWait,
		target:   cfg.Target,
		interval: cfg.Interval,
	}
	g.release = g.free
	return g
}

var noRelease = func() {}

// Admit asks for an execution slot. ok=true hands back a release func the
// caller must invoke when the op completes; ok=false means the request
// was shed and should be rejected with StatusOverloaded. Nil gates admit
// everything.
func (g *Gate) Admit() (release func(), ok bool) {
	if g == nil {
		return noRelease, true
	}
	if g.tryAdmit() {
		// No wait: sojourn 0 feeds the controller so a drained queue
		// disengages shedding.
		if g.engaged.Load() {
			g.observe(time.Now(), 0)
		}
		return g.release, true
	}
	g.queued.Add(1)
	defer g.queued.Add(-1)
	start := time.Now()
	timer := time.NewTimer(g.maxWait)
	defer timer.Stop()
	for !g.tryAdmit() {
		select {
		case <-g.wake:
		case <-timer.C:
			g.observe(time.Now(), g.maxWait)
			g.shedWait.Add(1)
			return nil, false
		}
	}
	now := time.Now()
	if g.observe(now, now.Sub(start)) {
		// The CoDel law sheds this request: give the slot back, and the
		// admit with it, so the shed actually relieves the queue behind it.
		g.leave(admitOne)
		g.shedCoDel.Add(1)
		return nil, false
	}
	return g.release, true
}

// tryAdmit takes a slot if one is free.
func (g *Gate) tryAdmit() bool {
	for {
		w := g.word.Load()
		if w&inflightMask >= g.max {
			return false
		}
		if g.word.CompareAndSwap(w, w+admitOne) {
			return true
		}
	}
}

func (g *Gate) free() { g.leave(1) }

// leave takes d off word — a slot, or a slot and its admit — and passes
// the slot on to a waiter if there is one.
func (g *Gate) leave(d uint64) {
	g.word.Add(-d)
	if g.queued.Load() > 0 {
		select {
		case g.wake <- struct{}{}:
		default: // cap tokens already wait to be taken
		}
	}
}

// observe runs the CoDel control law on one measured sojourn and reports
// whether the request should be shed. Sojourns below target reset the
// controller; sojourns above it for a full interval engage dropping, and
// while engaged the drop rate ramps as interval/√dropCount — the standard
// CoDel schedule, which sheds just fast enough to drain a standing queue
// without collapsing throughput.
func (g *Gate) observe(now time.Time, sojourn time.Duration) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if sojourn < g.target {
		g.firstAbove = time.Time{}
		g.dropping = false
		g.engaged.Store(false)
		return false
	}
	g.engaged.Store(true)
	if g.firstAbove.IsZero() {
		g.firstAbove = now.Add(g.interval)
		return false
	}
	if !g.dropping {
		if now.Before(g.firstAbove) {
			return false
		}
		g.dropping = true
		g.dropCount = 1
		g.dropNext = now.Add(g.interval)
		return true
	}
	if now.Before(g.dropNext) {
		return false
	}
	g.dropCount++
	g.dropNext = now.Add(time.Duration(float64(g.interval) / math.Sqrt(float64(g.dropCount))))
	return true
}

// Snapshot reports the gate's current state; nil gates report zeros.
func (g *Gate) Snapshot() Stats {
	if g == nil {
		return Stats{}
	}
	g.mu.Lock()
	dropping := g.dropping
	g.mu.Unlock()
	w := g.word.Load()
	return Stats{
		MaxInflight: int(g.max),
		Inflight:    int(w & inflightMask),
		Queued:      int(g.queued.Load()),
		Admitted:    w >> inflightBits,
		ShedCoDel:   g.shedCoDel.Load(),
		ShedWait:    g.shedWait.Load(),
		Dropping:    dropping,
	}
}

// Admission is the prologue of a hop — what a controlet and a datalet both
// do with a request before they serve it. There is one per server: its gate,
// and its layer's two counters resolved once from the layer name.
type Admission struct {
	// Gate admits data-lane ops; nil admits everything.
	Gate *Gate
	// Shed and Expired are bespokv_overload_shed_total{layer} and
	// bespokv_deadline_expired_total{layer}. A layer that sheds or finds a
	// budget spent further down its path counts it here too.
	Shed, Expired *metrics.Counter

	errShed, errExpired string
}

// NewAdmission resolves layer's counters around gate.
func NewAdmission(layer string, gate *Gate) *Admission {
	return &Admission{
		Gate:       gate,
		Shed:       metrics.Default.Counter("bespokv_overload_shed_total", "layer", layer),
		Expired:    metrics.Default.Counter("bespokv_deadline_expired_total", "layer", layer),
		errShed:    layer + ": overloaded",
		errExpired: layer + ": deadline expired",
	}
}

// Admit runs the overload checks in front of a handler:
//
//   - control-lane ops (liveness probes, epoch leases, stats, telemetry)
//     pass straight through — the control plane is never queued behind data
//     traffic, so a data-path spike cannot delay the signals the
//     coordinator's failure detector watches;
//   - every other lane drops work whose propagated deadline has already
//     expired (the client gave up; executing it helps no one);
//   - data-lane ops additionally pass the gate, and are shed when it says the
//     node is queueing beyond its delay target. Internal-lane ops (chain
//     forwards, async repl, handoffs) bypass it: they continue work already
//     admitted at the entry edge, and re-gating them would shed the middle of
//     a chain write more often than its head.
//
// ok=false means the request was refused and resp already carries the
// retryable StatusOverloaded; otherwise the caller serves it and then calls
// release. A control-lane op reads no clock and touches no atomic here.
func (a *Admission) Admit(req *wire.Request, resp *wire.Response) (release func(), ok bool) {
	lane := LaneOf(req.Op)
	if lane != LaneControl && req.DeadlineExpired(clock.Mono) {
		a.Expired.Inc()
		resp.Status = wire.StatusOverloaded
		resp.Err = a.errExpired
		return nil, false
	}
	if lane != LaneData {
		return noRelease, true
	}
	release, ok = a.Gate.Admit()
	if !ok {
		a.Shed.Inc()
		resp.Status = wire.StatusOverloaded
		resp.Err = a.errShed
	}
	return release, ok
}

// Status is the /statusz "overloadz" section: the gate's state plus the
// layer's process-wide shed and deadline counters.
func (a *Admission) Status() map[string]any {
	return map[string]any{
		"gate":             a.Gate.Snapshot(),
		"shed_total":       a.Shed.Value(),
		"deadline_expired": a.Expired.Value(),
	}
}

// budgetTokenScale is the cost of one spend in budget tokens; each
// completed primary request credits pct tokens, so the sustained spend
// rate converges to pct% of the primary rate.
const budgetTokenScale = 100

// BudgetBurst bounds banked spends: a budget never holds more than this
// many at once.
const BudgetBurst = 10

// budgetTokenCap is BudgetBurst in tokens.
const budgetTokenCap = BudgetBurst * budgetTokenScale

// RetryBudget is a token bucket limiting extra requests — retries, hedges —
// to a fraction of primary traffic. A nil budget (pct <= 0) allows every
// spend — the pre-overload behavior.
type RetryBudget struct {
	pct    int64
	tokens atomic.Int64
}

// NewRetryBudget builds a budget crediting pct tokens per completed
// request and starting with banked spends affordable (at most
// BudgetBurst); pct <= 0 returns nil (unlimited).
func NewRetryBudget(pct, banked int) *RetryBudget {
	if pct <= 0 {
		return nil
	}
	b := &RetryBudget{pct: int64(pct)}
	b.tokens.Store(min(int64(banked)*budgetTokenScale, budgetTokenCap))
	return b
}

// Observe credits the budget for one completed primary request.
func (b *RetryBudget) Observe() {
	if b == nil {
		return
	}
	for {
		cur := b.tokens.Load()
		next := cur + b.pct
		if next > budgetTokenCap {
			next = budgetTokenCap
		}
		if next == cur || b.tokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Allow spends one retry's worth of tokens, reporting false when the
// budget is exhausted — the caller should skip the extra request instead
// of amplifying load.
func (b *RetryBudget) Allow() bool {
	if b == nil {
		return true
	}
	for {
		cur := b.tokens.Load()
		if cur < budgetTokenScale {
			return false
		}
		if b.tokens.CompareAndSwap(cur, cur-budgetTokenScale) {
			return true
		}
	}
}

// Tokens reports banked spends (fractional), for gauges.
func (b *RetryBudget) Tokens() float64 {
	if b == nil {
		return 0
	}
	return float64(b.tokens.Load()) / budgetTokenScale
}

// BreakerState is a circuit breaker's position.
type BreakerState uint8

const (
	// BreakerClosed passes traffic normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen fast-fails everything until a jittered cooldown ends.
	BreakerOpen
	// BreakerHalfOpen admits a single probe; its outcome closes or
	// re-opens the breaker.
	BreakerHalfOpen
)

// String returns the state mnemonic.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a per-endpoint circuit breaker. It trips after `threshold`
// consecutive transport-level failures, fast-fails while open, and after
// a jittered cooldown admits one half-open probe whose outcome decides
// between closing and another open period. Jitter spreads the probes of
// many clients so a recovering endpoint is not stampeded the instant a
// shared cooldown lapses.
type Breaker struct {
	threshold int
	cooldown  time.Duration

	// healthy is "closed, no failure counted, no probe out", written under
	// mu. While it holds, Allow and Success have nothing to decide or reset
	// and read only it: no lock, and no clock reading (AllowNow).
	healthy atomic.Bool

	mu      sync.Mutex
	state   BreakerState
	fails   int
	until   time.Time // open until (jittered)
	probing bool      // a half-open probe is in flight
}

// NewBreaker builds a breaker tripping after threshold consecutive
// failures, with the given base cooldown (jittered to [0.5c, 1.5c)).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		return nil
	}
	if cooldown <= 0 {
		cooldown = 250 * time.Millisecond
	}
	b := &Breaker{threshold: threshold, cooldown: cooldown}
	b.healthy.Store(true)
	return b
}

// Allow reports whether a request may be sent now. While open it returns
// false until the jittered cooldown lapses, then admits exactly one probe
// at a time. Nil breakers always allow.
func (b *Breaker) Allow(now time.Time) bool {
	if b == nil || b.healthy.Load() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Before(b.until) {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// AllowNow is Allow at the current time, which it reads only when the
// breaker is not healthy.
func (b *Breaker) AllowNow() bool {
	if b == nil || b.healthy.Load() {
		return true
	}
	return b.Allow(time.Now())
}

// Success records a completed exchange (any response, even an error
// status, proves the endpoint is talking) and closes the breaker.
func (b *Breaker) Success() {
	if b == nil || b.healthy.Load() {
		return
	}
	b.mu.Lock()
	b.state = BreakerClosed
	b.fails = 0
	b.probing = false
	b.healthy.Store(true)
	b.mu.Unlock()
}

// Failure records a transport-level failure (dial error, call timeout —
// not an application status). A half-open probe failure re-opens
// immediately; otherwise the breaker opens after threshold consecutive
// failures.
func (b *Breaker) Failure(now time.Time) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.healthy.Store(false)
	b.fails++
	wasProbe := b.state == BreakerHalfOpen
	b.probing = false
	if wasProbe || b.fails >= b.threshold {
		b.state = BreakerOpen
		// Jittered cooldown in [0.5c, 1.5c): decorrelates the half-open
		// probes of independent clients.
		j := b.cooldown/2 + time.Duration(rand.Int64N(int64(b.cooldown)))
		b.until = now.Add(j)
	}
}

// State reports the breaker's position; nil breakers read closed.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerSet keys breakers by endpoint address. A nil set (threshold
// <= 0) hands out nil breakers, which always allow.
type BreakerSet struct {
	threshold int
	cooldown  time.Duration

	// m is replaced, never changed, so For reads it without a lock; mu
	// orders the writers.
	m  atomic.Pointer[map[string]*Breaker]
	mu sync.Mutex
}

// NewBreakerSet builds a set sharing one threshold/cooldown across
// endpoints; threshold <= 0 returns nil (breakers disabled).
func NewBreakerSet(threshold int, cooldown time.Duration) *BreakerSet {
	if threshold <= 0 {
		return nil
	}
	s := &BreakerSet{threshold: threshold, cooldown: cooldown}
	s.m.Store(&map[string]*Breaker{})
	return s
}

// For returns the endpoint's breaker, creating it on first use.
func (s *BreakerSet) For(addr string) *Breaker {
	if s == nil {
		return nil
	}
	if b := (*s.m.Load())[addr]; b != nil {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.m.Load()
	if b := old[addr]; b != nil {
		return b
	}
	b := NewBreaker(s.threshold, s.cooldown)
	next := make(map[string]*Breaker, len(old)+1)
	for a, ob := range old {
		next[a] = ob
	}
	next[addr] = b
	s.m.Store(&next)
	return b
}

// States counts breakers by position, for the state gauges.
func (s *BreakerSet) States() (closed, open, half int) {
	if s == nil {
		return 0, 0, 0
	}
	for _, b := range *s.m.Load() {
		switch b.State() {
		case BreakerOpen:
			open++
		case BreakerHalfOpen:
			half++
		default:
			closed++
		}
	}
	return
}

// Signal tracks recent overload pushback (Overloaded rejections) and
// reports whether overload is *sustained* — at least `min` events inside
// `window`. Degradation hooks key off it: one stray rejection shouldn't
// disable hedging, a steady stream should.
type Signal struct {
	window time.Duration

	mu    sync.Mutex
	times []time.Time // ring of the last len(times) event instants
	idx   int
	n     int
}

// NewSignal builds a signal that activates after min events within
// window. min < 1 is clamped to 1.
func NewSignal(window time.Duration, min int) *Signal {
	if min < 1 {
		min = 1
	}
	return &Signal{window: window, times: make([]time.Time, min)}
}

// Note records one overload pushback.
func (s *Signal) Note(now time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.times[s.idx] = now
	s.idx = (s.idx + 1) % len(s.times)
	if s.n < len(s.times) {
		s.n++
	}
	s.mu.Unlock()
}

// Active reports whether the min-th most recent pushback is still inside
// the window — i.e. overload is sustained, not a blip.
func (s *Signal) Active(now time.Time) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < len(s.times) {
		return false
	}
	oldest := s.times[s.idx] // next overwrite slot = oldest of the last min
	return now.Sub(oldest) < s.window
}
