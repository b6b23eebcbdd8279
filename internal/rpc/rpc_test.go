package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bespokv/internal/faultnet"
	"bespokv/internal/trace"
	"bespokv/internal/transport"
)

type addArgs struct{ A, B int }

func newPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	s, c, _ := newParkingPair(t)
	return s, c
}

// newParkingPair is newPair whose server also answers "Park": the call
// waits until the test calls release (at the latest, at cleanup), so no
// test sleeps to a fixed time to keep a call in flight.
func newParkingPair(t *testing.T) (s *Server, c *Client, release func()) {
	t.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	s = NewServer()
	HandleFunc(s, "Add", func(a addArgs) (int, error) { return a.A + a.B, nil })
	HandleFunc(s, "Fail", func(struct{}) (int, error) { return 0, errors.New("boom") })
	HandleFunc(s, "Slow", func(d int) (int, error) {
		time.Sleep(time.Duration(d) * time.Millisecond)
		return d, nil
	})
	parked := make(chan struct{})
	HandleFunc(s, "Park", func(struct{}) (int, error) {
		<-parked
		return 0, nil
	})
	addr, err := s.Serve(net, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err = DialClient(net, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	release = sync.OnceFunc(func() { close(parked) })
	t.Cleanup(release) // runs first: Close waits for the parked handlers
	return s, c, release
}

func TestCall(t *testing.T) {
	_, c := newPair(t)
	var sum int
	if err := c.Call("Add", addArgs{2, 3}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum != 5 {
		t.Fatalf("sum=%d", sum)
	}
}

func TestCallError(t *testing.T) {
	_, c := newPair(t)
	err := c.Call("Fail", struct{}{}, nil)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("got %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, c := newPair(t)
	if err := c.Call("Nope", nil, nil); err == nil {
		t.Fatal("unknown method must error")
	}
}

func TestConcurrentCallsInterleave(t *testing.T) {
	_, c := newPair(t)
	var wg sync.WaitGroup
	start := time.Now()
	errs := make(chan error, 2)
	wg.Add(2)
	go func() { // slow call first
		defer wg.Done()
		var got int
		errs <- c.Call("Slow", 200, &got)
	}()
	time.Sleep(10 * time.Millisecond)
	var fastDone time.Duration
	go func() { // fast call second must not wait for the slow one
		defer wg.Done()
		var sum int
		errs <- c.Call("Add", addArgs{1, 1}, &sum)
		fastDone = time.Since(start)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if fastDone > 150*time.Millisecond {
		t.Fatalf("fast call blocked behind slow one: %v", fastDone)
	}
}

func TestManyConcurrentClients(t *testing.T) {
	_, first := newPair(t)
	net, _ := transport.Lookup("inproc")
	addr := first.conn.RemoteAddr()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialClient(net, addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < 100; i++ {
				var sum int
				if err := c.Call("Add", addArgs{w, i}, &sum); err != nil {
					errCh <- err
					return
				}
				if sum != w+i {
					errCh <- fmt.Errorf("w%d: sum=%d", w, sum)
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
}

func TestInFlightCallsFailOnClose(t *testing.T) {
	s, c, release := newParkingPair(t)
	done := make(chan error, 1)
	go func() {
		done <- c.Call("Park", struct{}{}, nil)
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the server
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }() // returns once the parked handler does
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight call must fail when server dies")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after server close")
	}
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

func TestCallAfterClientClose(t *testing.T) {
	_, c := newPair(t)
	c.Close()
	time.Sleep(10 * time.Millisecond)
	if err := c.Call("Add", addArgs{1, 1}, nil); err == nil {
		t.Fatal("call after close must fail")
	}
}

func TestRawHandler(t *testing.T) {
	net, _ := transport.Lookup("inproc")
	s := NewServer()
	s.Handle("Echo", func(raw json.RawMessage) (any, error) {
		return json.RawMessage(raw), nil
	})
	addr, err := s.Serve(net, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialClient(net, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out map[string]int
	if err := c.Call("Echo", map[string]int{"x": 7}, &out); err != nil {
		t.Fatal(err)
	}
	if out["x"] != 7 {
		t.Fatalf("echo lost data: %v", out)
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	s := NewServer()
	s.Handle("M", func(json.RawMessage) (any, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate handler must panic")
		}
	}()
	s.Handle("M", func(json.RawMessage) (any, error) { return nil, nil })
}

func TestCallTimeout(t *testing.T) {
	_, c, release := newParkingPair(t)
	c.CallTimeout = 50 * time.Millisecond
	var out int
	done := make(chan error, 1)
	go func() { done <- c.Call("Park", struct{}{}, nil) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("want ErrCallTimeout, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a parked call outlived its 50ms timeout by 2s")
	}
	release()
	// The connection survives a timed-out call; later calls still work,
	// and the abandoned call's late response is discarded silently.
	c.CallTimeout = DefaultCallTimeout
	if err := c.Call("Add", addArgs{A: 2, B: 3}, &out); err != nil || out != 5 {
		t.Fatalf("call after timeout: %v out=%d", err, out)
	}
}

func TestCallTimeoutExplicit(t *testing.T) {
	_, c := newPair(t)
	c.CallTimeout = 50 * time.Millisecond
	var out int
	// An explicit longer deadline overrides the connection default.
	if err := c.CallTimeoutTraced(0, "Slow", 200, &out, 5*time.Second); err != nil || out != 200 {
		t.Fatalf("CallTimeoutTraced: %v out=%d", err, out)
	}
}

// TestCloseWaitsForHandlers drives Close concurrently with slow in-flight
// handlers; under -race this fails if Close races dispatched handler
// goroutines instead of waiting for them.
func TestCloseWaitsForHandlers(t *testing.T) {
	s, c := newPair(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out int
			_ = c.Call("Slow", 50, &out)
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestCallTracedRecordsServerSpan(t *testing.T) {
	s, c := newPair(t)
	s.Name = "testsvc"
	rec := trace.Default
	before := rec.Total()
	var sum int
	if err := c.CallTimeoutTraced(0xabc123, "Add", addArgs{A: 2, B: 3}, &sum, c.CallTimeout); err != nil {
		t.Fatal(err)
	}
	if sum != 5 {
		t.Fatalf("sum=%d", sum)
	}
	// The server records its span after writing the response, so poll.
	deadline := time.Now().Add(2 * time.Second)
	for rec.Total() == before {
		if time.Now().After(deadline) {
			t.Fatal("no span recorded for traced call")
		}
		time.Sleep(time.Millisecond)
	}
	var found bool
	for _, tr := range rec.Traces(0) {
		if tr.ID != 0xabc123 {
			continue
		}
		for _, sp := range tr.Spans {
			if sp.Node == "testsvc" && sp.Stage == "rpc.Add" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("span for rpc.Add on node testsvc not found")
	}

	// Untraced calls must record nothing.
	mid := rec.Total()
	if err := c.Call("Add", addArgs{A: 1, B: 1}, &sum); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if rec.Total() != mid {
		t.Fatal("untraced call recorded a span")
	}
}

// One transient Accept error used to end the accept loop for good, leaving
// a control service that looks alive and accepts nobody.
func TestAcceptLoopOutlivesTransientErrors(t *testing.T) {
	const fails = 3
	before := rpcAcceptErrs.Value()
	s := NewServer()
	HandleFunc(s, "Add", func(a addArgs) (int, error) { return a.A + a.B, nil })
	addr, err := s.Serve(faultnet.FailAccepts(transport.Inproc{}, fails), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialClient(transport.Inproc{}, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.CallTimeout = 5 * time.Second
	var sum int
	if err := c.Call("Add", addArgs{2, 3}, &sum); err != nil || sum != 5 {
		t.Fatalf("server deaf after %d accept errors: %v (sum %d)", fails, err, sum)
	}
	if got := rpcAcceptErrs.Value() - before; got != fails {
		t.Fatalf("accept errors counted: %d, want %d", got, fails)
	}
}

// TestConnFailedSentinel: every way a client learns that its connection is
// gone carries ErrConnFailed in front of the cause — the call pending when
// the reader died, every call after it, a one-way Send — and an error the
// server answered with does not.
func TestConnFailedSentinel(t *testing.T) {
	_, c := newPair(t)
	if err := c.Call("Fail", struct{}{}, nil); err == nil || errors.Is(err, ErrConnFailed) {
		t.Fatalf("an answer classified as a connection failure: %v", err)
	}
	pending := make(chan error, 1)
	go func() { pending <- c.Call("Slow", 200, nil) }()
	time.Sleep(20 * time.Millisecond) // let the call reach the server
	c.Close()
	for what, err := range map[string]error{
		"pending call": <-pending,
		"later call":   c.Call("Add", addArgs{1, 2}, nil),
		"later send":   c.Send("Add", addArgs{1, 2}),
	} {
		if !errors.Is(err, ErrConnFailed) || !strings.HasPrefix(err.Error(), "rpc: connection failed: ") {
			t.Errorf("%s: %v, want ErrConnFailed before the cause", what, err)
		}
	}
}
