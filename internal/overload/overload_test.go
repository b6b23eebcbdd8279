package overload

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/wire"
)

func TestLaneOf(t *testing.T) {
	cases := []struct {
		op   wire.Op
		want Lane
	}{
		{wire.OpNop, LaneControl},
		{wire.OpEpochSet, LaneControl},
		{wire.OpTelemetry, LaneControl},
		{wire.OpStats, LaneControl},
		{wire.OpChainPut, LaneInternal},
		{wire.OpChainDel, LaneInternal},
		{wire.OpChainMPut, LaneInternal},
		{wire.OpReplPut, LaneInternal},
		{wire.OpReplDel, LaneInternal},
		{wire.OpReplMPut, LaneInternal},
		{wire.OpHandoff, LaneInternal},
		{wire.OpExport, LaneInternal},
		{wire.OpDelRange, LaneInternal},
		{wire.OpPut, LaneData},
		{wire.OpGet, LaneData},
		{wire.OpDel, LaneData},
		{wire.OpScan, LaneData},
		{wire.OpMGet, LaneData},
		{wire.OpMPut, LaneData},
		{wire.OpDirectGet, LaneData},
		{wire.OpCreateTable, LaneData},
		{wire.OpDeleteTable, LaneData},
	}
	for _, c := range cases {
		if got := LaneOf(c.op); got != c.want {
			t.Errorf("LaneOf(%v) = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestGateDisabledAndNil(t *testing.T) {
	if g := NewGate(Config{MaxInflight: 0}); g != nil {
		t.Fatal("MaxInflight 0 should disable the gate")
	}
	var g *Gate
	rel, ok := g.Admit()
	if !ok {
		t.Fatal("nil gate must admit")
	}
	rel() // must not panic
	if s := g.Snapshot(); s.Sheds() != 0 || s.MaxInflight != 0 {
		t.Fatalf("nil gate snapshot %+v", s)
	}
}

func TestGateUncontendedAdmits(t *testing.T) {
	g := NewGate(Config{MaxInflight: 2})
	r1, ok1 := g.Admit()
	r2, ok2 := g.Admit()
	if !ok1 || !ok2 {
		t.Fatal("uncontended admits must succeed")
	}
	if s := g.Snapshot(); s.Inflight != 2 || s.Admitted != 2 {
		t.Fatalf("snapshot %+v", s)
	}
	r1()
	r2()
	if s := g.Snapshot(); s.Inflight != 0 {
		t.Fatalf("slots not released: %+v", s)
	}
}

// TestGateAdmitZeroAllocs: an admitted op that did not wait costs the heap
// nothing, gate or no gate. Admit used to return the method value
// g.release, 16 B per call, twice per routed GET (controlet + datalet).
// With the controller at rest it does not take g.mu either (nor the clock
// reading that went with it): the test holds the lock throughout, so an
// Admit that reached for it would hang.
func TestGateAdmitZeroAllocs(t *testing.T) {
	for name, g := range map[string]*Gate{"fast path": NewGate(Config{MaxInflight: 4}), "nil gate": nil} {
		if g != nil {
			g.mu.Lock()
		}
		got := testing.AllocsPerRun(1000, func() {
			release, ok := g.Admit()
			if !ok {
				t.Fatal("uncontended admit shed")
			}
			release()
		})
		if g != nil {
			g.mu.Unlock()
		}
		if got != 0 {
			t.Errorf("%s: %.1f allocs per Admit+release, want 0", name, got)
		}
	}
}

// TestGateZeroWaitDisengages: the idle shortcut must not cost the "a
// drained queue disengages shedding" behaviour — once a waiter has armed
// the controller, the next admit that finds a free slot resets it (and
// only then do admits go back to skipping the controller).
func TestGateZeroWaitDisengages(t *testing.T) {
	g := NewGate(Config{MaxInflight: 1, Target: 5 * time.Millisecond, Interval: 100 * time.Millisecond})
	base := time.Unix(2000, 0)
	g.observe(base, 10*time.Millisecond)
	if !g.observe(base.Add(101*time.Millisecond), 10*time.Millisecond) || !g.Snapshot().Dropping {
		t.Fatal("controller did not engage")
	}
	if !g.engaged.Load() {
		t.Fatal("an engaged controller must route zero-wait admits through observe")
	}
	release, ok := g.Admit()
	if !ok {
		t.Fatal("zero-wait admit shed")
	}
	release()
	if g.Snapshot().Dropping || g.engaged.Load() {
		t.Fatal("a zero-wait admit must disengage shedding")
	}
	g.mu.Lock()
	if !g.firstAbove.IsZero() {
		t.Fatal("a zero-wait admit must clear the arming instant")
	}
	g.mu.Unlock()
}

func BenchmarkGateAdmit(b *testing.B) {
	g := NewGate(Config{MaxInflight: 1024})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			release, ok := g.Admit()
			if !ok {
				b.Fatal("uncontended admit shed")
			}
			release()
		}
	})
}

func TestGateMaxWaitShed(t *testing.T) {
	g := NewGate(Config{MaxInflight: 1, Target: time.Millisecond, MaxWait: 5 * time.Millisecond})
	rel, ok := g.Admit()
	if !ok {
		t.Fatal("first admit")
	}
	defer rel()
	start := time.Now()
	if _, ok := g.Admit(); ok {
		t.Fatal("second admit should shed: slot held past MaxWait")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("shed took %v, expected ~MaxWait", waited)
	}
	s := g.Snapshot()
	if s.ShedWait != 1 {
		t.Fatalf("ShedWait = %d, want 1: %+v", s.ShedWait, s)
	}
}

// The hop prologue, lane by lane: control ops pass whatever their deadline
// and the gate say; internal ops honor the deadline and bypass the gate; data
// ops answer to both. A refusal fills resp and moves the layer's counter.
func TestAdmission(t *testing.T) {
	a := NewAdmission("admtest", NewGate(Config{MaxInflight: 1, Target: time.Millisecond, MaxWait: time.Millisecond}))
	hold, ok := a.Gate.Admit() // the one slot: every gated op from here on sheds
	if !ok {
		t.Fatal("first admit")
	}
	defer hold()
	spent := func(op wire.Op) *wire.Request { return &wire.Request{Op: op, DeadlineAt: 1} }
	for _, tc := range []struct {
		name string
		req  *wire.Request
		err  string // "" = admitted
	}{
		{"control, spent", spent(wire.OpEpochSet), ""},
		{"internal, gate full", &wire.Request{Op: wire.OpChainPut}, ""},
		{"internal, spent", spent(wire.OpChainPut), "admtest: deadline expired"},
		{"write-all batch, gate full", &wire.Request{Op: wire.OpReplMPut, Pairs: []wire.KV{{Key: []byte("k"), Version: 1}}}, ""},
		{"write-all batch, spent", spent(wire.OpReplMPut), "admtest: deadline expired"},
		{"data, spent", spent(wire.OpGet), "admtest: deadline expired"},
		{"data, gate full", &wire.Request{Op: wire.OpGet}, "admtest: overloaded"},
	} {
		shed, expired := a.Shed.Value(), a.Expired.Value()
		var resp wire.Response
		release, ok := a.Admit(tc.req, &resp)
		if ok != (tc.err == "") {
			t.Fatalf("%s: admitted = %v", tc.name, ok)
		}
		if ok {
			release()
			if resp.Status != wire.StatusOK || resp.Err != "" {
				t.Errorf("%s: admitted but resp touched: %+v", tc.name, resp)
			}
			continue
		}
		if resp.Status != wire.StatusOverloaded || resp.Err != tc.err {
			t.Errorf("%s: refused with %v %q, want Overloaded %q", tc.name, resp.Status, resp.Err, tc.err)
		}
		wantShed, wantExpired := int64(0), int64(1)
		if tc.err == "admtest: overloaded" {
			wantShed, wantExpired = 1, 0
		}
		if a.Shed.Value()-shed != wantShed || a.Expired.Value()-expired != wantExpired {
			t.Errorf("%s: counters moved by shed %d expired %d", tc.name, a.Shed.Value()-shed, a.Expired.Value()-expired)
		}
	}
	st := a.Status()
	if st["shed_total"] != a.Shed.Value() || st["deadline_expired"] != a.Expired.Value() || st["gate"].(Stats).ShedWait != 1 {
		t.Errorf("status %+v", st)
	}
	// A nil gate admits every lane.
	open := NewAdmission("admtest", nil)
	if release, ok := open.Admit(&wire.Request{Op: wire.OpPut}, &wire.Response{}); !ok {
		t.Error("nil gate shed a data op")
	} else {
		release()
	}
}

func TestGateQueuedAdmitAfterRelease(t *testing.T) {
	g := NewGate(Config{MaxInflight: 1, Target: 50 * time.Millisecond, MaxWait: time.Second})
	rel, ok := g.Admit()
	if !ok {
		t.Fatal("first admit")
	}
	done := make(chan bool, 1)
	go func() {
		r2, ok2 := g.Admit()
		if ok2 {
			r2()
		}
		done <- ok2
	}()
	time.Sleep(10 * time.Millisecond) // waiter queues, well under target
	rel()
	if !<-done {
		t.Fatal("queued request should admit once the slot frees (sojourn < target)")
	}
}

// TestGateCoDelLaw drives observe() directly with synthetic clocks to pin
// the control law: below-target resets, the first interval above target
// arms dropping, and the drop rate ramps as interval/sqrt(count).
func TestGateCoDelLaw(t *testing.T) {
	g := NewGate(Config{MaxInflight: 1, Target: 5 * time.Millisecond, Interval: 100 * time.Millisecond})
	base := time.Unix(2000, 0)
	hi := 10 * time.Millisecond // above target
	lo := time.Millisecond      // below target

	if g.observe(base, hi) {
		t.Fatal("first above-target sojourn must not shed (arming)")
	}
	if g.observe(base.Add(50*time.Millisecond), hi) {
		t.Fatal("still inside the arming interval")
	}
	if !g.observe(base.Add(101*time.Millisecond), hi) {
		t.Fatal("a full interval above target must engage dropping")
	}
	if !g.Snapshot().Dropping {
		t.Fatal("gate should report dropping")
	}
	// Next drop is scheduled interval later; before that, admit.
	if g.observe(base.Add(150*time.Millisecond), hi) {
		t.Fatal("shed before dropNext")
	}
	if !g.observe(base.Add(202*time.Millisecond), hi) {
		t.Fatal("second drop after the first interval")
	}
	// dropCount=2 → next gap interval/sqrt(2) ≈ 70.7ms.
	if g.observe(base.Add(260*time.Millisecond), hi) {
		t.Fatal("shed before the sqrt-ramped dropNext")
	}
	if !g.observe(base.Add(275*time.Millisecond), hi) {
		t.Fatal("third drop after interval/sqrt(2)")
	}
	// A below-target sojourn disengages everything.
	if g.observe(base.Add(276*time.Millisecond), lo) {
		t.Fatal("below-target sojourn must never shed")
	}
	if g.Snapshot().Dropping {
		t.Fatal("below-target sojourn must disengage dropping")
	}
	if g.observe(base.Add(277*time.Millisecond), hi) {
		t.Fatal("controller must re-arm from scratch after reset")
	}
}

// TestGateCapAndWakeups: the one-CAS admit under contention. N goroutines
// against a cap of k never have more than k inside; every queued waiter is
// admitted when a slot frees, none left to wait out MaxWait (the controller
// is kept at rest, so a shed here can only be a lost wake-up); and the
// gate reads empty afterwards.
func TestGateCapAndWakeups(t *testing.T) {
	const k, workers, rounds = 3, 24, 200
	g := NewGate(Config{MaxInflight: k, Target: time.Minute, Interval: time.Hour, MaxWait: 10 * time.Second})
	var inside, most atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				release, ok := g.Admit()
				if !ok {
					t.Error("shed with the controller at rest: a waiter missed its wake-up")
					return
				}
				n := inside.Add(1)
				for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
				}
				if j%8 == 0 {
					time.Sleep(20 * time.Microsecond)
				}
				inside.Add(-1)
				release()
			}
		}()
	}
	wg.Wait()
	if m := most.Load(); m > k {
		t.Fatalf("%d ops inside a gate capped at %d", m, k)
	}
	s := g.Snapshot()
	if s.Inflight != 0 || s.Queued != 0 {
		t.Fatalf("gate not empty after the run: %+v", s)
	}
	if s.Admitted != workers*rounds || s.Sheds() != 0 {
		t.Fatalf("admitted %d, shed %d; want %d and 0", s.Admitted, s.Sheds(), workers*rounds)
	}
}

func TestGateConcurrentStress(t *testing.T) {
	g := NewGate(Config{MaxInflight: 4, Target: time.Millisecond, MaxWait: 2 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if rel, ok := g.Admit(); ok {
					time.Sleep(50 * time.Microsecond)
					rel()
				}
			}
		}()
	}
	wg.Wait()
	s := g.Snapshot()
	if s.Inflight != 0 || s.Queued != 0 {
		t.Fatalf("leaked slots or queue entries: %+v", s)
	}
	if s.Admitted+s.Sheds() != 32*50 {
		t.Fatalf("admitted %d + sheds %d != %d", s.Admitted, s.Sheds(), 32*50)
	}
}

func TestRetryBudget(t *testing.T) {
	if b := NewRetryBudget(0, BudgetBurst); b != nil {
		t.Fatal("pct 0 should disable the budget")
	}
	var nilB *RetryBudget
	if !nilB.Allow() {
		t.Fatal("nil budget must allow")
	}
	nilB.Observe() // must not panic

	b := NewRetryBudget(10, BudgetBurst)
	// Starts with a full burst of 10 retries banked.
	for i := 0; i < 10; i++ {
		if !b.Allow() {
			t.Fatalf("burst retry %d denied", i)
		}
	}
	if b.Allow() {
		t.Fatal("11th retry allowed with empty bucket")
	}
	// 10 completed ops at 10% credit exactly one retry.
	for i := 0; i < 10; i++ {
		b.Observe()
	}
	if !b.Allow() {
		t.Fatal("credited retry denied")
	}
	if b.Allow() {
		t.Fatal("second retry allowed on one credit")
	}
	// The bucket caps at 10 banked retries.
	for i := 0; i < 10_000; i++ {
		b.Observe()
	}
	if got := b.Tokens(); got != 10 {
		t.Fatalf("tokens %v, want capped at 10", got)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	if b := NewBreaker(0, time.Second); b != nil {
		t.Fatal("threshold 0 should disable the breaker")
	}
	var nilB *Breaker
	if !nilB.Allow(time.Now()) || nilB.State() != BreakerClosed {
		t.Fatal("nil breaker must allow and read closed")
	}
	nilB.Success()
	nilB.Failure(time.Now())

	now := time.Unix(3000, 0)
	b := NewBreaker(3, 100*time.Millisecond)
	// Two failures then a success: counter resets, stays closed.
	b.Failure(now)
	b.Failure(now)
	b.Success()
	b.Failure(now)
	b.Failure(now)
	if b.State() != BreakerClosed || !b.Allow(now) {
		t.Fatal("breaker tripped below threshold")
	}
	// Third consecutive failure trips it.
	b.Failure(now)
	if b.State() != BreakerOpen {
		t.Fatal("breaker should open at threshold")
	}
	if b.Allow(now.Add(49 * time.Millisecond)) {
		t.Fatal("open breaker allowed before min cooldown (0.5c)")
	}
	// Jitter caps the open window at 1.5c: the probe must be allowed then.
	probeAt := now.Add(150 * time.Millisecond)
	if !b.Allow(probeAt) {
		t.Fatal("half-open probe denied after max cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if b.Allow(probeAt) {
		t.Fatal("second concurrent probe allowed")
	}
	// Probe failure re-opens immediately (no threshold).
	b.Failure(probeAt)
	if b.State() != BreakerOpen {
		t.Fatal("failed probe should re-open")
	}
	// Next probe succeeds → closed, counters reset.
	again := probeAt.Add(200 * time.Millisecond)
	if !b.Allow(again) {
		t.Fatal("probe denied after second cooldown")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatal("successful probe should close")
	}
	b.Failure(again)
	b.Failure(again)
	if b.State() != BreakerClosed {
		t.Fatal("failure count should have reset on close")
	}
}

// TestBreakerHealthyPath: a closed breaker with no failure counted answers
// Allow, AllowNow and Success from its healthy word alone — they complete
// while another goroutine holds its lock. One failure takes it off that
// path; a trip, a half-open probe after the cooldown and the probe's
// success put it back.
func TestBreakerHealthyPath(t *testing.T) {
	b := NewBreaker(3, 100*time.Millisecond)
	lockFree := func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		done := make(chan bool, 1)
		go func() {
			ok := b.AllowNow() && b.Allow(time.Time{})
			b.Success()
			done <- ok
		}()
		select {
		case ok := <-done:
			if !ok {
				t.Fatal("a healthy breaker refused")
			}
			return true
		case <-time.After(100 * time.Millisecond):
			return false
		}
	}
	if !b.healthy.Load() || !lockFree() {
		t.Fatal("a new breaker is not on the lock-free path")
	}
	now := time.Unix(6000, 0)
	b.Failure(now)
	if b.healthy.Load() || b.State() != BreakerClosed || !b.Allow(now) {
		t.Fatal("one failure must leave the breaker closed but off the lock-free path")
	}
	b.Success()
	if !b.healthy.Load() {
		t.Fatal("a success must reset the count and restore the lock-free path")
	}
	for i := 0; i < 3; i++ {
		b.Failure(now)
	}
	if b.State() != BreakerOpen || b.Allow(now) {
		t.Fatal("three failures must trip the breaker")
	}
	probeAt := now.Add(150 * time.Millisecond)
	if !b.Allow(probeAt) || b.State() != BreakerHalfOpen || b.healthy.Load() {
		t.Fatal("the cooldown must end in a half-open probe, off the lock-free path")
	}
	b.Success()
	if b.State() != BreakerClosed || !b.healthy.Load() || !lockFree() {
		t.Fatal("a probe success must close the breaker and restore the lock-free path")
	}

	// The two paths agree under concurrency (run with -race).
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				switch (i + j) % 3 {
				case 0:
					b.AllowNow()
				case 1:
					b.Success()
				default:
					b.Failure(time.Now())
				}
			}
		}(i)
	}
	wg.Wait()
	b.Success()
	if b.State() != BreakerClosed || !b.healthy.Load() {
		t.Fatal("a success after the storm must close the breaker onto the lock-free path")
	}
}

func TestBreakerSet(t *testing.T) {
	var nilS *BreakerSet
	if nilS.For("a") != nil {
		t.Fatal("nil set must hand out nil breakers")
	}
	if c, o, h := nilS.States(); c+o+h != 0 {
		t.Fatal("nil set states")
	}
	s := NewBreakerSet(1, 100*time.Millisecond)
	now := time.Unix(4000, 0)
	if s.For("a") != s.For("a") {
		t.Fatal("same addr must share one breaker")
	}
	s.For("a").Failure(now)
	s.For("b") // created closed
	closed, open, half := s.States()
	if closed != 1 || open != 1 || half != 0 {
		t.Fatalf("states closed=%d open=%d half=%d", closed, open, half)
	}
}

func TestSignal(t *testing.T) {
	var nilS *Signal
	nilS.Note(time.Now())
	if nilS.Active(time.Now()) {
		t.Fatal("nil signal must be inactive")
	}

	now := time.Unix(5000, 0)
	s := NewSignal(100*time.Millisecond, 3)
	s.Note(now)
	s.Note(now.Add(10 * time.Millisecond))
	if s.Active(now.Add(20 * time.Millisecond)) {
		t.Fatal("two events should not activate a min-3 signal")
	}
	s.Note(now.Add(20 * time.Millisecond))
	if !s.Active(now.Add(30 * time.Millisecond)) {
		t.Fatal("three events inside the window should activate")
	}
	if s.Active(now.Add(150 * time.Millisecond)) {
		t.Fatal("signal should decay once the oldest event leaves the window")
	}
	// A fresh burst reactivates.
	late := now.Add(300 * time.Millisecond)
	s.Note(late)
	s.Note(late)
	s.Note(late)
	if !s.Active(late.Add(time.Millisecond)) {
		t.Fatal("fresh burst should reactivate")
	}
}
