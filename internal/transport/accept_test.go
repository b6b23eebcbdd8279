package transport_test

import (
	"errors"
	"syscall"
	"testing"
	"time"

	"bespokv/internal/faultnet"
	"bespokv/internal/transport"
)

func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	const fails = 5
	l, err := faultnet.FailAccepts(transport.Inproc{}, fails).Listen("")
	if err != nil {
		t.Fatal(err)
	}
	var seen []error
	accepted := make(chan transport.Conn, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		transport.AcceptLoop(l, func(err error) bool {
			seen = append(seen, err)
			return true
		}, func(c transport.Conn) bool {
			accepted <- c
			return true
		})
	}()
	c, err := transport.Inproc{}.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case sc := <-accepted:
		sc.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("loop never accepted after the transient errors")
	}
	l.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not exit when the listener closed")
	}
	if len(seen) != fails {
		t.Fatalf("failed callback saw %d errors, want %d", len(seen), fails)
	}
	for _, err := range seen {
		if !errors.Is(err, syscall.EMFILE) {
			t.Fatalf("unexpected error reported: %v", err)
		}
	}
}

// A server that is stopping answers false from either callback and the loop
// returns without another Accept.
func TestAcceptLoopStopsWhenToldTo(t *testing.T) {
	l, err := faultnet.FailAccepts(transport.Inproc{}, 1).Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		transport.AcceptLoop(l, func(error) bool { return false }, func(transport.Conn) bool {
			t.Error("accepted after the failed callback said stop")
			return false
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("loop kept going")
	}
}
