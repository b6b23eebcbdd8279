package dlm

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// checkReleaseOrdered: owner a does Lock(k) → Unlock(k) → Lock(k) … on one
// connection while owner b, on another, polls Lock(k, wait=0). Unlock is a
// one-way frame, so the only thing that keeps a's release #n from reaching
// the lease table after a's grant #n+1 is that the server takes one
// connection's frames up in order. A release that overtook would free the
// key under a's feet: b would be granted while a's latest Lock has
// returned and its Unlock is not yet sent — which is what held says. a
// keeps every lease until one whole poll of b has fallen inside it.
func checkReleaseOrdered(t *testing.T, a, b *Client, rounds int) {
	t.Helper()
	const key = "contended"
	var held atomic.Int64 // n while a holds its n-th grant, 0 in between
	var polls atomic.Int64
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		grants := 0
		for {
			select {
			case <-stop:
				t.Logf("b: %d polls, %d grants between a's leases", polls.Load(), grants)
				done <- nil
				return
			default:
			}
			before := held.Load()
			_, err := b.Lock(key, Write, 10*time.Second, 0)
			after := held.Load()
			polls.Add(1)
			switch {
			case err == nil:
				if before != 0 && before == after {
					done <- fmt.Errorf("b granted %q while a held its grant #%d: a stale release overtook a's Lock", key, before)
					return
				}
				grants++
				if err := b.Unlock(key, Write); err != nil {
					done <- err
					return
				}
			case !strings.Contains(err.Error(), ErrLockHeld):
				done <- err
				return
			}
		}
	}()
	for i := 1; i <= rounds; i++ {
		// b may hold the key for a moment; a queues behind it.
		if _, err := a.Lock(key, Write, 10*time.Second, 5*time.Second); err != nil {
			t.Fatalf("a's lock #%d: %v", i, err)
		}
		held.Store(int64(i))
		// The poll that ends first may have begun before the grant; the one
		// after it began and ended under it.
		for seen := polls.Load(); polls.Load() < seen+2; {
			select {
			case err := <-done:
				t.Fatal(err)
			default:
				runtime.Gosched()
			}
		}
		held.Store(0)
		if err := a.Unlock(key, Write); err != nil {
			t.Fatalf("a's unlock #%d: %v", i, err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// checkParkedLockDoesNotBlock: a Lock that has to wait leaves the
// connection's reader; what the same client sends behind it is served while
// it is parked, and it is answered when the key frees up.
func checkParkedLockDoesNotBlock(t *testing.T, leader *Server, holder, a *Client) {
	t.Helper()
	if _, err := holder.Lock("k2", Write, 10*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := a.Lock("k2", Write, 10*time.Second, 5*time.Second)
		parked <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		leader.mu.Lock()
		n := len(leader.waiters["k2"])
		leader.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("contended lock never parked")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := a.Lock("k3", Write, 10*time.Second, 0); err != nil {
			t.Fatalf("lock behind a parked one: %v", err)
		}
		if err := a.Unlock("k3", Write); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("20 lock/unlock pairs behind a parked lock took %v", d)
	}
	select {
	case err := <-parked:
		t.Fatalf("lock on a held key returned early: %v", err)
	default:
	}
	if err := holder.Unlock("k2", Write); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-parked:
		if err != nil {
			t.Fatalf("parked lock after the release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked lock never granted")
	}
}

func TestOrderedRelease(t *testing.T) {
	_, dial := newDLM(t, Config{})
	checkReleaseOrdered(t, dial("a"), dial("b"), 10000)
}

func TestOrderedParkedLock(t *testing.T) {
	s, dial := newDLM(t, Config{})
	checkParkedLockDoesNotBlock(t, s, dial("holder"), dial("a"))
}

// The same two guarantees when the lease table is a 3-member replicated
// state machine: the reader submits to the log, so log order is arrival
// order, and only the wait for the commit leaves it.
func TestOrderedReleaseReplicated(t *testing.T) {
	g := newDLMGroup(t, 3, 10*time.Second, 25*time.Millisecond)
	g.waitLeader()
	checkReleaseOrdered(t, g.client("a"), g.client("b"), 500)
}

func TestOrderedParkedLockReplicated(t *testing.T) {
	g := newDLMGroup(t, 3, 10*time.Second, 25*time.Millisecond)
	lead := g.waitLeader()
	holder, a := g.client("holder"), g.client("a")
	// Make both clients find the leader before the timing-sensitive part.
	for _, c := range []*Client{holder, a} {
		if _, err := lockRetry(t, c, "warm-"+c.owner, Write, time.Second, 0); err != nil {
			t.Fatal(err)
		}
	}
	checkParkedLockDoesNotBlock(t, g.srvs[lead], holder, a)
}

// TestUnlockFallsBackWithoutGrantingConn: a client that has not heard from
// the lease table on its current connection (fresh dial, or the connection
// its grants came on was dropped) releases with an awaited call, so the
// release follows a NotLeader redirect instead of vanishing at a follower.
func TestUnlockFallsBackWithoutGrantingConn(t *testing.T) {
	g := newDLMGroup(t, 3, 10*time.Second, 25*time.Millisecond)
	lead := g.waitLeader()
	a := g.client("a")
	if _, err := lockRetry(t, a, "k", Write, 10*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	// A second client of the same owner, dialed at a follower only, has no
	// granting connection: its Unlock must reach the leader and release.
	var follower string
	for _, id := range g.ids {
		if id != lead {
			follower = g.peers[id]
			break
		}
	}
	a2, err := DialClient(g.net, follower, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if err := a2.Unlock("k", Write); err != nil {
		t.Fatalf("awaited unlock via follower: %v", err)
	}
	// The awaited release has committed: no wait needed.
	if _, err := lockRetry(t, g.client("b"), "k", Write, time.Second, 0); err != nil {
		t.Fatalf("release sent through a follower was lost: %v", err)
	}
}

// TestParkedLockWakesOnRelease: a Lock that misses because its key is held
// is granted as soon as the holder's release lands, wherever that release
// falls — before the miss, between the miss and the park, or after the
// park — in a group of one and in a 3-member group. Each round A holds the
// key, B asks for it with a 2 s wait, A releases; B must be granted within
// 50 ms of the release, where a release slept through would cost B a sweep
// interval (2.5 s here).
func TestParkedLockWakesOnRelease(t *testing.T) {
	for _, size := range []int{1, 3} {
		t.Run(fmt.Sprintf("group-of-%d", size), func(t *testing.T) {
			const ttl = 10 * time.Second
			var leader *Server
			var a, b *Client
			if size == 1 {
				s, dial := newDLM(t, Config{DefaultTTL: ttl})
				leader, a, b = s, dial("a"), dial("b")
			} else {
				g := newDLMGroup(t, size, ttl, 0)
				leader, a, b = g.srvs[g.waitLeader()], g.client("a"), g.client("b")
				for _, c := range []*Client{a, b} { // find the leader first
					if _, err := lockRetry(t, c, "warm-"+c.owner, Write, ttl, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			parked := func(key string) bool {
				leader.mu.Lock()
				defer leader.mu.Unlock()
				return len(leader.waiters[key]) > 0
			}
			for round := 0; round < 200; round++ {
				key := fmt.Sprintf("k%d", round)
				if _, err := a.Lock(key, Write, ttl, time.Second); err != nil {
					t.Fatalf("round %d: a's lock: %v", round, err)
				}
				granted := make(chan error, 1)
				go func() {
					_, err := b.Lock(key, Write, ttl, 2*time.Second)
					granted <- err
				}()
				if round%4 == 0 {
					for !parked(key) {
						time.Sleep(100 * time.Microsecond)
					}
				} else {
					time.Sleep(time.Duration(round%4*round) * time.Microsecond)
				}
				if err := a.Unlock(key, Write); err != nil {
					t.Fatalf("round %d: a's unlock: %v", round, err)
				}
				released := time.Now()
				select {
				case err := <-granted:
					if err != nil {
						t.Fatalf("round %d: b's lock: %v", round, err)
					}
					if d := time.Since(released); d > 50*time.Millisecond {
						t.Fatalf("round %d: b granted %v after the release", round, d)
					}
				case <-time.After(50 * time.Millisecond):
					t.Fatalf("round %d: b not granted within 50ms of the release", round)
				}
				if err := b.Unlock(key, Write); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
