package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"bespokv/internal/transport"
)

// orderedServer has three ordered methods and one concurrent one: Note
// appends its argument to a sequence, Park keeps its call until release is
// closed and then answers from a goroutine of its own, Seq returns the
// sequence so far; Conc is Note registered through HandleFunc.
type orderedServer struct {
	mu      sync.Mutex
	seq     []uint64
	parked  chan struct{} // receives once per Park call that has left the reader
	release chan struct{}
	wg      sync.WaitGroup
}

func (o *orderedServer) note(n uint64) {
	o.mu.Lock()
	o.seq = append(o.seq, n)
	o.mu.Unlock()
}

func newOrderedPair(t *testing.T) (*orderedServer, *Client) {
	t.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	o := &orderedServer{parked: make(chan struct{}, 16), release: make(chan struct{})}
	s := NewServer()
	s.HandleOrdered("Note", func(c *Call) {
		var m tokenMsg
		if err := c.Args(&m); err != nil {
			c.Reply(nil, err)
			return
		}
		o.note(m.Token)
		c.Reply(nil, nil)
	})
	s.HandleOrdered("Park", func(c *Call) {
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			o.parked <- struct{}{}
			<-o.release
			c.Reply(&tokenMsg{Token: 1}, nil)
		}()
	})
	s.HandleOrdered("Seq", func(c *Call) {
		o.mu.Lock()
		n := len(o.seq)
		inOrder := true
		for i, v := range o.seq {
			inOrder = inOrder && v == uint64(i)
		}
		o.mu.Unlock()
		if !inOrder {
			c.Reply(nil, errors.New("sequence out of order"))
			return
		}
		c.Reply(&tokenMsg{Token: uint64(n)}, nil)
	})
	HandleFunc(s, "Conc", func(m tokenMsg) (struct{}, error) {
		o.note(m.Token)
		return struct{}{}, nil
	})
	addr, err := s.Serve(net, "")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialClient(net, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		s.Close()
		o.wg.Wait()
	})
	return o, c
}

// TestOrderedDispatchInArrivalOrder: one-way frames and calls to ordered
// methods reach their handlers in the order one connection sent them, so a
// call behind N one-way notes observes all N, in sequence. (Through the
// concurrent dispatch of HandleFunc the notes start in any order.)
func TestOrderedDispatchInArrivalOrder(t *testing.T) {
	_, c := newOrderedPair(t)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := c.Send("Note", &tokenMsg{Token: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			var got tokenMsg
			if err := c.Call("Seq", nil, &got); err != nil {
				t.Fatalf("after %d notes: %v", i+1, err)
			}
			if got.Token != uint64(i+1) {
				t.Fatalf("call sent after %d notes saw %d of them", i+1, got.Token)
			}
		}
	}
}

// TestOrderedHandlerThatWaitsDoesNotBlock: a call whose ordered handler
// answers later leaves the reader free; the frames behind it on the same
// connection are served and answered while it is still parked, and its own
// answer finds its caller by id.
func TestOrderedHandlerThatWaitsDoesNotBlock(t *testing.T) {
	o, c := newOrderedPair(t)
	parked := make(chan error, 1)
	go func() {
		var got tokenMsg
		err := c.Call("Park", nil, &got)
		if err == nil && got.Token != 1 {
			err = errors.New("parked call got somebody else's answer")
		}
		parked <- err
	}()
	<-o.parked
	for i := 0; i < 100; i++ {
		if err := c.Call("Note", &tokenMsg{Token: uint64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var got tokenMsg
	if err := c.Call("Seq", nil, &got); err != nil || got.Token != 100 {
		t.Fatalf("behind a parked call: %v, %d notes", err, got.Token)
	}
	select {
	case err := <-parked:
		t.Fatalf("parked call answered before its release: %v", err)
	default:
	}
	close(o.release)
	select {
	case err := <-parked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked call never answered")
	}
}

// TestSendIsNeverAnswered: a one-way frame gets no response whatever
// becomes of it — unknown method, handler error, ordered or concurrent
// handler — and the connection carries on.
func TestSendIsNeverAnswered(t *testing.T) {
	o, c := newOrderedPair(t)
	for _, send := range []struct {
		method string
		args   any
	}{
		{"Nope", &tokenMsg{Token: 7}},                  // unknown method
		{"Note", &lockMsg{Key: "not a token message"}}, // handler rejects its args
		{"Note", &tokenMsg{Token: 0}},
		{"Conc", &tokenMsg{Token: 1}},
		{"Park", nil}, // answers a one-way call later: still nothing on the wire
	} {
		if err := c.Send(send.method, send.args); err != nil {
			t.Fatalf("Send %s: %v", send.method, err)
		}
	}
	<-o.parked
	close(o.release)
	if err := c.Send("Note", make(chan int)); err == nil {
		t.Fatal("Send of unmarshalable args must fail")
	}
	// Every response the server writes is id-matched to a pending call; a
	// response to a one-way frame would carry id 0 and match none, so look
	// at the slot table and at a call made after all of the above.
	deadline := time.Now().Add(5 * time.Second)
	for {
		o.mu.Lock()
		n := len(o.seq)
		o.mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 one-way notes arrived", n)
		}
		time.Sleep(time.Millisecond)
	}
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d pending slots after one-way sends", pending)
	}
	if err := c.Call("Note", &tokenMsg{Token: 2}, nil); err != nil {
		t.Fatalf("call after one-way sends: %v", err)
	}
	c.Close()
	if err := c.Send("Note", &tokenMsg{}); err == nil {
		t.Fatal("Send on a closed client must fail")
	}
}

// orderedLock is the server half of a Lock-shaped ordered method that
// parses its arguments in place, the way dlm does.
func orderedLock(c *Call) {
	p, err := c.WireArgs()
	if err != nil {
		c.Reply(nil, err)
		return
	}
	r := NewWireReader(p)
	n := len(r.Bytes()) + len(r.Bytes())
	r.Bytes()
	n += int(r.Varint())
	r.Varint()
	if err := r.Done(); err != nil {
		c.Reply(nil, err)
		return
	}
	c.Reply(&tokenMsg{Token: uint64(n)}, nil)
}

func TestWireArgsRejectsJSON(t *testing.T) {
	c := newEnvelopePair(t)
	lock := lockMsg{Key: "k1", Owner: "me", Mode: "w", TTLMs: 5}
	var tok tokenMsg
	if err := c.Call("Ordered", &lock, &tok); err != nil || tok.Token != 9 {
		t.Fatalf("wire args: %v %+v", err, tok)
	}
	if err := c.Call("Ordered", lock, &tok); err == nil || err.Error() != "rpc: Ordered takes Wire args" {
		t.Fatalf("JSON args to a WireArgs handler: %v", err)
	}
}

// oneWayFrame is what Send puts on the wire: a request whose id is zero.
func oneWayFrame(t testing.TB) []byte {
	buf := requestFrame(t, kindWire, "Unlock", (&lockMsg{Key: "k", Owner: "o", Mode: "w"}).AppendWire(nil))
	if id := binary.LittleEndian.Uint64(buf[idOffset:]); id != 0 {
		t.Fatalf("one-way frame with id %d", id)
	}
	return buf
}

// TestOneWayFrameLayout reads what Send puts on the wire: an ordinary
// request frame whose id is zero; a Call on the same connection numbers
// from 1.
func TestOneWayFrameLayout(t *testing.T) {
	net, err := transport.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := DialClient(net, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := &lockMsg{Key: "k", Owner: "o", Mode: "w"}
	if err := c.Send("Unlock", msg); err != nil {
		t.Fatal(err)
	}
	go func() { _ = c.CallTimeoutTraced(0, "Lock", msg, nil, 10*time.Millisecond) }()
	br := bufio.NewReader(conn)
	for i, want := range []struct {
		method string
		id     uint64
	}{{"Unlock", 0}, {"Lock", 1}} {
		body, err := readFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		req, err := parseRequest(body)
		if err != nil || req.id != want.id || string(req.method) != want.method || req.kind != kindWire ||
			!bytes.Equal(req.payload, msg.AppendWire(nil)) {
			t.Fatalf("frame %d: %+v (%v), want %s with id %d", i, req, err, want.method, want.id)
		}
	}
}
