package rsm

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/rpc"
	"bespokv/internal/transport"
)

// fakeMember is one member of a pretend control-plane group: it answers
// "Echo" as the leader would, or the way its behaviour says.
type fakeMember struct {
	addr   string
	srv    *rpc.Server
	calls  atomic.Int64
	notes  chan string   // one-way "Note" frames, in arrival order
	stop   chan struct{} // releases parked handlers before the server closes
	leader atomic.Value  // string: "" serves; "?" NotLeader with no hint; else NotLeader naming it
	silent atomic.Bool   // Echo parks until stop: a member that takes the call and says nothing
}

var fakeSeq atomic.Uint64

func startFake(t *testing.T, net transport.Network, addr string) *fakeMember {
	t.Helper()
	m := &fakeMember{srv: rpc.NewServer(), notes: make(chan string, 16), stop: make(chan struct{})}
	m.leader.Store("")
	rpc.HandleFunc(m.srv, "Echo", func(s string) (string, error) {
		m.calls.Add(1)
		if m.silent.Load() {
			<-m.stop
		}
		switch l := m.leader.Load().(string); l {
		case "":
			return s + "@" + m.addr, nil
		case "?":
			return "", &NotLeaderError{}
		default:
			return "", &NotLeaderError{LeaderAddr: l}
		}
	})
	rpc.HandleFunc(m.srv, "Wait", func(ms int) (struct{}, error) {
		select {
		case <-time.After(time.Duration(ms) * time.Millisecond):
		case <-m.stop:
		}
		return struct{}{}, nil
	})
	m.srv.HandleOrdered("Note", func(c *rpc.Call) {
		var s string
		if c.Args(&s) == nil {
			m.notes <- s
		}
		c.Reply(nil, nil)
	})
	var err error
	if m.addr, err = m.srv.Serve(net, addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.close)
	return m
}

func (m *fakeMember) close() {
	select {
	case <-m.stop:
		return
	default:
	}
	close(m.stop)
	m.srv.Close()
}

// dialCounter counts a client's dials and lets a test reset the connections
// it established the way a peer's RST does: the blocked Read of an idle
// connection returns an error that is not io.EOF.
type dialCounter struct {
	transport.Network
	dials  atomic.Int64 // connections established
	failed atomic.Int64 // dials refused
	mu     sync.Mutex
	conns  []*resetConn
}

type resetConn struct {
	transport.Conn
	reset atomic.Bool
}

func (c *resetConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil && c.reset.Load() {
		err = errors.New("read: connection reset by peer")
	}
	return n, err
}

func (d *dialCounter) Dial(addr string) (transport.Conn, error) {
	conn, err := d.Network.Dial(addr)
	if err != nil {
		d.failed.Add(1)
		return nil, err
	}
	d.dials.Add(1)
	rc := &resetConn{Conn: conn}
	d.mu.Lock()
	d.conns = append(d.conns, rc)
	d.mu.Unlock()
	return rc, nil
}

func (d *dialCounter) resetAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		c.reset.Store(true)
		c.Conn.Close()
	}
	d.conns = nil
}

func echo(c *Client, timeout time.Duration) (string, error) {
	var out string
	err := c.Call(0, "Echo", "x", &out, timeout)
	return out, err
}

// TestClientPolicy walks the one policy every control-plane client has:
// where a call ends up, what it returns, and which member the client keeps.
func TestClientPolicy(t *testing.T) {
	type spec struct {
		name     string
		unlisted bool   // serving, but not in the client's address list
		dead     bool   // listed, nobody listening
		dies     bool   // stops once the client has dialed
		leader   string // fakeMember.leader, by member name
		silent   bool
	}
	cases := []struct {
		name    string
		members []spec
		timeout time.Duration
		served  string // member that answers; "" for an error
		wantErr error
		keeps   string // member the client targets afterwards
		spared  string // member the second call must not touch
	}{
		{name: "dead member is rotated past",
			members: []spec{{name: "a", dead: true}, {name: "b"}},
			served:  "b", keeps: "b"},
		{name: "member that dies under the client is rotated past",
			members: []spec{{name: "a", dies: true}, {name: "b"}},
			served:  "b", keeps: "b"},
		{name: "follower names a listed leader",
			members: []spec{{name: "a", leader: "b"}, {name: "b"}},
			served:  "b", keeps: "b", spared: "a"},
		{name: "follower names a leader outside the list",
			members: []spec{{name: "a", leader: "c"}, {name: "b", leader: "c"}, {name: "c", unlisted: true}},
			served:  "c", keeps: "c", spared: "a"},
		{name: "follower knows no leader",
			members: []spec{{name: "a", leader: "?"}, {name: "b"}},
			served:  "b", keeps: "b", spared: "a"},
		{name: "silent member: rotate, then return the ambiguity",
			members: []spec{{name: "a", silent: true}, {name: "b"}},
			timeout: 50 * time.Millisecond,
			wantErr: rpc.ErrCallTimeout, keeps: "b", spared: "a"},
		{name: "an answer is not retried",
			members: []spec{{name: "a"}, {name: "b"}},
			served:  "a", keeps: "a", spared: "b"},
	}
	inproc, _ := transport.Lookup("inproc")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := fakeSeq.Add(1)
			addr := func(name string) string { return fmt.Sprintf("fake-%d-%s", seq, name) }
			members := map[string]*fakeMember{}
			var list []string
			for _, sp := range tc.members {
				if !sp.unlisted {
					list = append(list, addr(sp.name))
				}
				if sp.dead {
					continue
				}
				m := startFake(t, inproc, addr(sp.name))
				if sp.leader != "" && sp.leader != "?" {
					sp.leader = addr(sp.leader)
				}
				m.leader.Store(sp.leader)
				m.silent.Store(sp.silent)
				members[sp.name] = m
			}
			c, err := Dial(inproc, strings.Join(list, " , "))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, sp := range tc.members {
				if sp.dies {
					members[sp.name].close()
				}
			}

			got, err := echo(c, tc.timeout)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("first call: %v, want %v", err, tc.wantErr)
				}
			} else if want := "x@" + addr(tc.served); err != nil || got != want {
				t.Fatalf("first call = %q, %v; want %q", got, err, want)
			}
			if c.Addr() != addr(tc.keeps) {
				t.Fatalf("client targets %s, want %s", c.Addr(), addr(tc.keeps))
			}
			// The choice is sticky: the next call goes straight there.
			var before int64
			if tc.spared != "" {
				before = members[tc.spared].calls.Load()
			}
			if got, err := echo(c, tc.timeout); err != nil || got != "x@"+addr(tc.keeps) {
				t.Fatalf("second call = %q, %v; want an answer from %s", got, err, tc.keeps)
			}
			if tc.spared != "" && members[tc.spared].calls.Load() != before {
				t.Fatalf("second call went back to %s", tc.spared)
			}
		})
	}
}

// TestClientAttemptBudget: with every member gone a call gives up after
// max(4, 3·members) attempts and says why.
func TestClientAttemptBudget(t *testing.T) {
	inproc, _ := transport.Lookup("inproc")
	for _, n := range []int{1, 2} {
		seq := fakeSeq.Add(1)
		var list []string
		var members []*fakeMember
		for i := 0; i < n; i++ {
			m := startFake(t, inproc, fmt.Sprintf("fake-%d-%d", seq, i))
			members = append(members, m)
			list = append(list, m.addr)
		}
		net := &dialCounter{Network: inproc}
		c, err := Dial(net, strings.Join(list, ","))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			m.close()
		}
		_, err = echo(c, 0)
		if err == nil || IsNotLeader(err) {
			t.Fatalf("%d members, all gone: %v", n, err)
		}
		// The first attempt finds the dead connection; the rest are dials.
		if want := int64(max(4, 3*n) - 1); net.failed.Load() != want {
			t.Fatalf("%d members: %d failed dials, want %d", n, net.failed.Load(), want)
		}
		c.Close()
	}
}

// TestClientIdleReset is the wedge the three copies shared: they recognised
// a dead connection by the text rpc gives calls that were pending when its
// reader died, so a connection reset while idle — whose later calls get the
// reader's own error — was never dropped, and the client failed every call
// from then on with one dial to its name.
func TestClientIdleReset(t *testing.T) {
	inproc, _ := transport.Lookup("inproc")
	m := startFake(t, inproc, fmt.Sprintf("fake-%d-a", fakeSeq.Add(1)))
	net := &dialCounter{Network: inproc}
	c, err := Dial(net, m.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := echo(c, 0); err != nil {
		t.Fatal(err)
	}
	net.resetAll()
	// Wait for the reader to see the reset: a call that races it is pending
	// when the reader dies, which is the case that always worked.
	deadline := time.Now().Add(5 * time.Second)
	for c.conn.Call("Echo", "probe", nil) == nil {
		if time.Now().After(deadline) {
			t.Fatal("connection survived the reset")
		}
		time.Sleep(time.Millisecond)
	}
	if got, err := echo(c, 0); err != nil || got != "x@"+m.addr {
		t.Fatalf("call after an idle reset = %q, %v (dials = %d)", got, err, net.dials.Load())
	}
	if d := net.dials.Load(); d != 2 {
		t.Fatalf("dials = %d, want 2", d)
	}
}

// TestClientCloseAbortsLongPoll pins what a data-plane client's teardown
// depends on: Close fails a call in flight with ErrClientClosed at once,
// where treating the dying connection as a member failure would dial again
// and sit out a fresh poll window.
func TestClientCloseAbortsLongPoll(t *testing.T) {
	inproc, _ := transport.Lookup("inproc")
	m := startFake(t, inproc, fmt.Sprintf("fake-%d-a", fakeSeq.Add(1)))
	c, err := Dial(inproc, m.addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Call(0, "Wait", 8000, nil, 20*time.Second) }()
	time.Sleep(50 * time.Millisecond) // let the poll reach the server
	start := time.Now()
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("aborted call: %v, want ErrClientClosed", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("close took %v to abort the poll", d)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("poll still blocked after close")
	}
	if err := c.Call(0, "Echo", "x", nil, 0); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call on a closed client: %v", err)
	}
}

// TestClientSend: a one-way frame goes out only on a connection the leader
// has answered on, so it is ordered against that leader's answers.
func TestClientSend(t *testing.T) {
	inproc, _ := transport.Lookup("inproc")
	m := startFake(t, inproc, fmt.Sprintf("fake-%d-a", fakeSeq.Add(1)))
	c, err := Dial(inproc, m.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send("Note", "early"); err == nil {
		t.Fatal("Send on a connection nobody has answered on")
	}
	if _, err := echo(c, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("Note", "ordered"); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-m.notes:
		if got != "ordered" {
			t.Fatalf("member got %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("one-way frame never arrived")
	}
	c.drop(c.conn)
	if err := c.Send("Note", "late"); err == nil {
		t.Fatal("Send after the granting connection was dropped")
	}
	// A follower's NotLeader answer is no grant either.
	m.leader.Store("?")
	if _, err := echo(c, 0); !IsNotLeader(err) {
		t.Fatalf("echo at a lone follower: %v", err)
	}
	if err := c.Send("Note", "to a follower"); err == nil {
		t.Fatal("Send to a member that only ever said NotLeader")
	}
}

func TestClientAddressList(t *testing.T) {
	for list, want := range map[string][]string{
		" a:1, b:2,,c:3 ": {"a:1", "b:2", "c:3"},
		"a:1":             {"a:1"},
		"":                nil,
		" , ":             nil,
	} {
		if got := splitAddrs(list); !reflect.DeepEqual(got, want) {
			t.Errorf("splitAddrs(%q) = %q, want %q", list, got, want)
		}
	}
	inproc, _ := transport.Lookup("inproc")
	if _, err := Dial(inproc, " , "); err == nil {
		t.Fatal("Dial with no address")
	}
	if _, err := Dial(inproc, "fake-nobody-1,fake-nobody-2"); err == nil {
		t.Fatal("Dial with no reachable member")
	}
}
