package transport_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"bespokv/internal/faultnet"
	"bespokv/internal/transport"
)

// hold is a serve func that sits in Read until the connection ends.
func hold(c transport.Conn) { _, _ = io.Copy(io.Discard, c) }

func noFail(t *testing.T) func(error) {
	return func(err error) { t.Errorf("unexpected accept error: %v", err) }
}

// readEnds reports whether the peer of c closed it: a Read that returns
// instead of hanging.
func readEnds(c transport.Conn) bool {
	done := make(chan struct{})
	go func() {
		_, _ = c.Read(make([]byte, 1))
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// Transient Accept errors are reported one by one and retried after a pause
// that doubles from 1 ms and stops growing at 100 ms.
func TestServerSurvivesTransientErrors(t *testing.T) {
	const fails = 10
	l, err := faultnet.FailAccepts(transport.Inproc{}, fails).Listen("")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []error
	var at []time.Time
	accepted := make(chan time.Time, 1)
	s := transport.NewServer()
	defer s.Close()
	s.Serve(l, func(err error) {
		mu.Lock()
		seen, at = append(seen, err), append(at, time.Now())
		mu.Unlock()
	}, func(c transport.Conn) {
		accepted <- time.Now()
		hold(c)
	})
	c, err := transport.Inproc{}.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var last time.Time
	select {
	case last = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("never accepted after the transient errors")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != fails {
		t.Fatalf("failed saw %d errors, want %d", len(seen), fails)
	}
	for _, err := range seen {
		if !errors.Is(err, syscall.EMFILE) {
			t.Fatalf("unexpected error reported: %v", err)
		}
	}
	want := time.Millisecond
	for i := 1; i < fails; i++ {
		if gap := at[i].Sub(at[i-1]); gap < want {
			t.Fatalf("retry %d came after %v, want a pause of at least %v", i, gap, want)
		}
		want = min(2*want, 100*time.Millisecond)
	}
	// Uncapped, the tenth pause would be 512 ms.
	if gap := last.Sub(at[fails-1]); gap < 100*time.Millisecond || gap > 300*time.Millisecond {
		t.Fatalf("pause after error %d was %v, want the 100ms cap", fails, gap)
	}
}

// Close cuts a backoff short, and the loop neither accepts nor reports after
// it: a listener that keeps failing must not keep a closed server alive.
func TestServerCloseStopsRetrying(t *testing.T) {
	l, err := faultnet.FailAccepts(transport.Inproc{}, 1<<30).Listen("")
	if err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int64
	s := transport.NewServer()
	s.Serve(l, func(error) { failures.Add(1) }, func(transport.Conn) {
		t.Error("accepted on a listener that only fails")
	})
	for failures.Load() < 8 { // the pause is at the cap by now
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	s.Close()
	if d := time.Since(start); d > 80*time.Millisecond {
		t.Fatalf("Close waited %v for a sleeping accept loop", d)
	}
	n := failures.Load()
	time.Sleep(150 * time.Millisecond)
	if failures.Load() != n {
		t.Fatal("the accept loop outlived Close")
	}
}

// Close while dialers hammer the listener: every connection the server took
// is closed, every goroutine it started has returned when Close does, and
// nobody gets in afterwards.
func TestServerCloseRacesAcceptStorm(t *testing.T) {
	for _, net := range []transport.Network{transport.Inproc{}, transport.TCP{}} {
		t.Run(net.Name(), func(t *testing.T) {
			addr := ""
			if net.Name() == "tcp" {
				addr = "127.0.0.1:0"
			}
			for round := 0; round < 20; round++ {
				l, err := net.Listen(addr)
				if err != nil {
					t.Fatal(err)
				}
				var serving, served atomic.Int64
				s := transport.NewServer()
				s.Serve(l, noFail(t), func(c transport.Conn) {
					serving.Add(1)
					served.Add(1)
					hold(c)
					serving.Add(-1)
				})
				var mu sync.Mutex
				var dialled []transport.Conn
				stop := make(chan struct{})
				var dialers sync.WaitGroup
				for i := 0; i < 4; i++ {
					dialers.Add(1)
					go func() {
						defer dialers.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							c, err := net.Dial(l.Addr())
							if err != nil {
								continue // refused: the listener is gone
							}
							if c.LocalAddr() == c.RemoteAddr() {
								// Dialling a free loopback port can draw it
								// as the source port too: TCP connects the
								// socket to itself.
								c.Close()
								continue
							}
							mu.Lock()
							dialled = append(dialled, c)
							mu.Unlock()
						}
					}()
				}
				for served.Load() < 8 {
					time.Sleep(100 * time.Microsecond)
				}
				s.Close()
				if n := serving.Load(); n != 0 {
					t.Fatalf("Close returned with %d serve goroutines running", n)
				}
				if n := s.Conns(); n != 0 {
					t.Fatalf("Close left %d connections tracked", n)
				}
				close(stop)
				dialers.Wait()
				if c, err := net.Dial(l.Addr()); err == nil {
					c.Close()
					t.Fatal("dialled a closed server")
				}
				// Taken by the server or still in the backlog, every
				// connection a dialer got has been closed under it.
				for _, c := range dialled {
					if !readEnds(c) {
						t.Fatal("a connection outlived Close")
					}
					c.Close()
				}
			}
		})
	}
}

// The datalet's shape: a TCP address and a socket file feed one connection
// set, and one Close ends both — the socket file is unlinked, serve funcs
// blocked in Read return, and a second Close is a no-op.
func TestServerTwoListenersOneClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s")
	tl, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ul, err := transport.Unix{}.Listen(path)
	if err != nil {
		t.Fatal(err)
	}
	var returned atomic.Int64
	serve := func(c transport.Conn) {
		hold(c)
		returned.Add(1)
	}
	s := transport.NewServer()
	s.Serve(tl, noFail(t), serve)
	s.Serve(ul, noFail(t), serve)
	tc, err := transport.TCP{}.Dial(tl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	uc, err := transport.Unix{}.Dial(path)
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	for s.Conns() < 2 {
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := returned.Load(); n != 2 {
		t.Fatalf("Close returned with %d of 2 serve funcs done", n)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("socket file still there after Close: %v", err)
	}
	if !readEnds(tc) || !readEnds(uc) {
		t.Fatal("a client connection outlived Close")
	}
	var again sync.WaitGroup
	for i := 0; i < 4; i++ {
		again.Add(1)
		go func() {
			defer again.Done()
			if err := s.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		}()
	}
	again.Wait()
}

// A listener handed to a closed server is closed, not served.
func TestServerServeAfterClose(t *testing.T) {
	s := transport.NewServer()
	s.Close()
	l, err := transport.Inproc{}.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(l, noFail(t), func(transport.Conn) { t.Error("served after Close") })
	if _, err := (transport.Inproc{}).Dial(l.Addr()); !errors.Is(err, transport.ErrRefused) {
		t.Fatalf("dial after Serve on a closed server: %v", err)
	}
}
