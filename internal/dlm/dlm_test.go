package dlm

import (
	"strings"
	"sync"
	"testing"
	"time"

	"bespokv/internal/transport"
)

func newDLM(t *testing.T, cfg Config) (*Server, func(owner string) *Client) {
	t.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Network = net
	s, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, func(owner string) *Client {
		c, err := DialClient(net, s.Addr(), owner)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
}

func TestExclusiveLock(t *testing.T) {
	_, dial := newDLM(t, Config{})
	a, b := dial("a"), dial("b")
	tok, err := a.Lock("k", Write, time.Second, 0)
	if err != nil || tok == 0 {
		t.Fatalf("tok=%d err=%v", tok, err)
	}
	if _, err := b.Lock("k", Write, time.Second, 0); err == nil || !strings.Contains(err.Error(), "held") {
		t.Fatalf("contended lock: %v", err)
	}
	if err := a.Unlock("k", Write); err != nil {
		t.Fatal(err)
	}
	// Unlock returns when the release is written, not when it has landed:
	// another connection waits for it like for any held key.
	tok2, err := b.Lock("k", Write, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tok2 <= tok {
		t.Fatalf("fencing token not monotonic: %d then %d", tok, tok2)
	}
}

func TestSharedReaders(t *testing.T) {
	_, dial := newDLM(t, Config{})
	a, b, w := dial("a"), dial("b"), dial("w")
	if _, err := a.Lock("k", Read, time.Second, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Lock("k", Read, time.Second, 0); err != nil {
		t.Fatalf("second reader blocked: %v", err)
	}
	if _, err := w.Lock("k", Write, time.Second, 0); err == nil {
		t.Fatal("writer must wait for readers")
	}
	a.Unlock("k", Read)
	b.Unlock("k", Read)
	// The releases are in flight on two other connections: wait for them.
	if _, err := w.Lock("k", Write, time.Second, time.Second); err != nil {
		t.Fatalf("writer after readers released: %v", err)
	}
	// Readers blocked by writer.
	if _, err := a.Lock("k", Read, time.Second, 0); err == nil {
		t.Fatal("reader must wait for writer")
	}
}

func TestWaitQueue(t *testing.T) {
	_, dial := newDLM(t, Config{})
	a, b := dial("a"), dial("b")
	if _, err := a.Lock("k", Write, 10*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.Lock("k", Write, time.Second, 2*time.Second)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	a.Unlock("k", Write)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter not granted: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("waiter hung")
	}
}

func TestLeaseExpiry(t *testing.T) {
	_, dial := newDLM(t, Config{DefaultTTL: 100 * time.Millisecond, SweepInterval: 20 * time.Millisecond})
	a, b := dial("a"), dial("b")
	if _, err := a.Lock("k", Write, 80*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	// b waits; a never unlocks (simulating a crashed controlet); the
	// lease must expire and b proceed.
	start := time.Now()
	if _, err := b.Lock("k", Write, time.Second, 2*time.Second); err != nil {
		t.Fatalf("lease never expired: %v", err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("lock granted before lease expiry")
	}
}

// A waiter takes a dead holder's lease when it runs out, not at the next
// sweep: the sweep interval here is ten times the lease.
func TestWaiterWakesAtExpiry(t *testing.T) {
	s, dial := newDLM(t, Config{SweepInterval: 2 * time.Second})
	a, b := dial("a"), dial("b")
	if _, err := a.Lock("k", Write, 200*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.Leases(); got["k"] != "a" || len(got) != 1 {
		t.Fatalf("leases = %v, want k held by a", got)
	}
	start := time.Now()
	if _, err := b.Lock("k", Write, time.Second, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 150*time.Millisecond || took > time.Second {
		t.Fatalf("b granted %v after a's 200ms lease was taken", took)
	}
	if got := s.Leases(); got["k"] != "b" {
		t.Fatalf("leases = %v, want k held by b", got)
	}
	b.Unlock("k", Write)
	deadline := time.Now().Add(time.Second)
	for len(s.Leases()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("leases after release = %v", s.Leases())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReentrantOwner(t *testing.T) {
	_, dial := newDLM(t, Config{})
	a := dial("a")
	if _, err := a.Lock("k", Write, time.Second, 0); err != nil {
		t.Fatal(err)
	}
	// Same owner may re-acquire (lease refresh).
	if _, err := a.Lock("k", Write, time.Second, 0); err != nil {
		t.Fatalf("re-entrant write denied: %v", err)
	}
	// Owner holding write may also read.
	if _, err := a.Lock("k", Read, time.Second, 0); err != nil {
		t.Fatalf("read under own write denied: %v", err)
	}
}

func TestUnlockIdempotent(t *testing.T) {
	_, dial := newDLM(t, Config{})
	a := dial("a")
	if err := a.Unlock("never-locked", Write); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	_, dial := newDLM(t, Config{})
	a := dial("a")
	if _, err := a.Lock("", Write, time.Second, 0); err == nil {
		t.Fatal("empty key must be rejected")
	}
	if _, err := a.Lock("k", Mode("x"), time.Second, 0); err == nil {
		t.Fatal("bad mode must be rejected")
	}
}

func TestManyKeysConcurrently(t *testing.T) {
	s, _ := newDLM(t, Config{})
	net, _ := transport.Lookup("inproc")
	const workers = 8
	counters := make([]int, 16)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialClient(net, s.Addr(), string(rune('A'+w)))
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				key := string(rune('a' + (w+i)%16))
				if _, err := c.Lock(key, Write, time.Second, 5*time.Second); err != nil {
					errCh <- err
					return
				}
				counters[(w+i)%16]++ // protected by the distributed lock
				if err := c.Unlock(key, Write); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != workers*50 {
		t.Fatalf("lost updates under lock: %d", total)
	}
}
