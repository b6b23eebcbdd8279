package datalet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"bespokv/internal/store"
	"bespokv/internal/store/ht"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// probeNet is a transport.Network that records every Dial (when, and the
// connection it returned) and can make the dials of one address hang.
type probeNet struct {
	transport.Network
	mu    sync.Mutex
	dials map[string][]time.Time
	conns map[string][]transport.Conn
	hang  map[string]chan struct{} // Dial blocks until the channel closes, then fails
}

func newProbeNet(name string) *probeNet {
	inner, _ := transport.Lookup(name)
	return &probeNet{
		Network: inner,
		dials:   map[string][]time.Time{},
		conns:   map[string][]transport.Conn{},
		hang:    map[string]chan struct{}{},
	}
}

func (n *probeNet) Dial(addr string) (transport.Conn, error) {
	n.mu.Lock()
	n.dials[addr] = append(n.dials[addr], time.Now())
	hang := n.hang[addr]
	n.mu.Unlock()
	if hang != nil {
		<-hang
		return nil, fmt.Errorf("probeNet: %s is a black hole", addr)
	}
	c, err := n.Network.Dial(addr)
	if err == nil {
		n.mu.Lock()
		n.conns[addr] = append(n.conns[addr], c)
		n.mu.Unlock()
	}
	return c, err
}

func (n *probeNet) dialTimes(addr string) []time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]time.Time(nil), n.dials[addr]...)
}

// gatedEngine blocks every read until release closes: a Get is a call
// that stays in flight for as long as the test wants; an OpNop passes.
type gatedEngine struct {
	store.Engine
	release chan struct{}
}

func (e gatedEngine) AppendGet(dst, key []byte) ([]byte, uint64, bool, error) {
	<-e.release
	return e.Engine.AppendGet(dst, key)
}

// serveAt starts a datalet on addr ("" and "127.0.0.1:0" pick one). release
// gates its Gets; nil means they run.
func serveAt(tb testing.TB, network transport.Network, addr string, release chan struct{}) *Server {
	tb.Helper()
	if release == nil {
		release = make(chan struct{})
		close(release)
	}
	srv, err := Serve(Config{
		Name:      "link-test",
		Network:   network,
		Addr:      addr,
		Codec:     wire.BinaryCodec{},
		NewEngine: func(string) (store.Engine, error) { return gatedEngine{ht.New(), release}, nil },
		Logf:      tb.Logf,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return srv
}

func nop(l *Link) error {
	var resp wire.Response
	return l.Do(&wire.Request{Op: wire.OpNop}, &resp)
}

func anyAddr(network string) string {
	if network == "tcp" {
		return "127.0.0.1:0"
	}
	return ""
}

// waitFor polls cond until it holds, failing the test after d.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
	}
}

var linkRows = []struct {
	network string
	size    int
}{
	{"inproc", 1}, {"inproc", 2}, {"tcp", 1}, {"tcp", 2},
}

// A server closed and served again on the same address answers on the next
// use after the backoff window, with nobody dropping anything; while it is
// away, calls fail with ErrLinkDown and the refusal shows through it.
func TestLinkSurvivesRestart(t *testing.T) {
	for _, row := range linkRows {
		row := row
		t.Run(fmt.Sprintf("%s-%d", row.network, row.size), func(t *testing.T) {
			net := newProbeNet(row.network)
			srv := serveAt(t, net.Network, anyAddr(row.network), nil)
			addr := srv.Addr()
			links := NewLinks(net, row.size, time.Second)
			defer links.Close()
			link := links.To(addr, wire.BinaryCodec{})
			if err := nop(link); err != nil {
				t.Fatal(err)
			}
			srv.Close()
			// The first calls find connections the peer reset; from the
			// first failed dial on, the link is down and says why.
			waitFor(t, 2*time.Second, "ErrLinkDown", func() bool {
				err := nop(link)
				if err == nil {
					t.Fatal("call answered by a closed server")
				}
				return errors.Is(err, ErrLinkDown)
			})
			if err := nop(link); !errors.Is(err, ErrLinkDown) || !errors.Is(err, transport.ErrRefused) {
				t.Fatalf("down link: %v, want ErrLinkDown wrapping ErrRefused", err)
			}
			if st := links.Stats(); st.Links != 1 || st.Down != 1 {
				t.Fatalf("stats while down: %+v", st)
			}

			serveAt(t, net.Network, addr, nil)
			back := time.Now()
			waitFor(t, 2*transport.BackoffMax, "the link to heal", func() bool { return nop(link) == nil })
			t.Logf("answered %v after the server was back, %d dials in all", time.Since(back), len(net.dialTimes(addr)))
			if st := links.Stats(); st.Conns != row.size || st.Down != 0 {
				t.Fatalf("stats after healing: %+v", st)
			}
			if links.To(addr, wire.BinaryCodec{}) != link {
				t.Fatal("To returned another link for the same address")
			}
		})
	}
}

// N calls in flight when a connection dies: the generation is replaced by
// exactly one dial, every caller's next call runs on the replacement, and
// no failure that arrives late — nor a heal asked for the old generation —
// closes it.
func TestLinkLateFailuresRedialOnce(t *testing.T) {
	const callers = 32
	for _, row := range linkRows {
		row := row
		t.Run(fmt.Sprintf("%s-%d", row.network, row.size), func(t *testing.T) {
			net := newProbeNet(row.network)
			release := make(chan struct{})
			defer close(release)
			srv := serveAt(t, net.Network, anyAddr(row.network), release)
			addr := srv.Addr()
			links := NewLinks(net, row.size, 0)
			defer links.Close()
			link := links.To(addr, wire.BinaryCodec{})
			if err := nop(link); err != nil {
				t.Fatal(err)
			}
			old := link.cur.Load()

			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var resp wire.Response
					if err := link.Do(&wire.Request{Op: wire.OpGet, Key: []byte("k")}, &resp); err == nil {
						t.Error("a call on the killed generation succeeded")
					}
					if err := nop(link); err != nil {
						t.Errorf("call after the failure: %v", err)
					}
				}()
			}
			waitFor(t, 5*time.Second, "every call to be in flight", func() bool {
				_, load := old.Stats()
				return load == callers
			})
			net.mu.Lock()
			victim := net.conns[addr][0]
			net.mu.Unlock()
			victim.Close()
			wg.Wait()

			for i := 0; i < 8; i++ {
				if err := link.heal(old); err != nil {
					t.Fatalf("heal of a generation already replaced: %v", err)
				}
			}
			if got := len(net.dialTimes(addr)); got != 2*row.size {
				t.Fatalf("%d dials, want %d (two generations of %d)", got, 2*row.size, row.size)
			}
			cur := link.cur.Load()
			if _, whole := cur.live(); cur == old || !whole {
				t.Fatal("the replacement did not survive the late failures")
			}
			if err := nop(link); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// While an address is down: every call fails at once with ErrLinkDown, and
// dial i+1 comes no sooner after dial i than the shortest pause
// transport.Backoff can draw for it.
func TestLinkDownFailsFastOneDialPerWindow(t *testing.T) {
	net := newProbeNet("inproc")
	links := NewLinks(net, 2, 0)
	defer links.Close()
	link := links.To("link-test-nobody-home", wire.BinaryCodec{})
	var calls int
	var slowest time.Duration
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; calls++ {
		t0 := time.Now()
		err := nop(link)
		if d := time.Since(t0); d > slowest {
			slowest = d
		}
		if !errors.Is(err, ErrLinkDown) || !errors.Is(err, transport.ErrRefused) {
			t.Fatalf("call %d: %v, want ErrLinkDown wrapping ErrRefused", calls, err)
		}
	}
	dials := net.dialTimes("link-test-nobody-home")
	for i := 1; i < len(dials); i++ {
		floor := min(transport.BackoffBase<<(i-1), transport.BackoffMax) / 2
		if gap := dials[i].Sub(dials[i-1]); gap < floor {
			t.Fatalf("dial %d came %v after dial %d, inside its %v window", i, gap, i-1, floor)
		}
	}
	// 5+10+20+40+80 ms of shortest windows fit in 200 ms, not the next 160.
	if len(dials) < 2 || len(dials) > 7 || calls < 10*len(dials) {
		t.Fatalf("%d dials for %d calls in 200 ms", len(dials), calls)
	}
	t.Logf("%d calls, %d dials, slowest call %v", calls, len(dials), slowest)
}

// A dial that hangs holds up the callers of that address and nobody else.
func TestLinkBlockedDialDelaysNoOtherAddress(t *testing.T) {
	net := newProbeNet("inproc")
	srv := serveAt(t, net.Network, "", nil)
	hang := make(chan struct{})
	net.hang["black-hole"] = hang
	links := NewLinks(net, 2, 0)
	defer links.Close()

	stuck := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { stuck <- nop(links.To("black-hole", wire.BinaryCodec{})) }()
	}
	waitFor(t, 5*time.Second, "the dial to start", func() bool { return len(net.dialTimes("black-hole")) == 1 })

	done := make(chan error, 1)
	go func() { done <- nop(links.To(srv.Addr(), wire.BinaryCodec{})) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a call to a healthy address waited for another address's dial")
	}
	select {
	case err := <-stuck:
		t.Fatalf("a caller of the hanging address returned before its dial: %v", err)
	default:
	}
	close(hang)
	for i := 0; i < 2; i++ {
		if err := <-stuck; !errors.Is(err, ErrLinkDown) {
			t.Fatalf("caller of the hanging address: %v", err)
		}
	}
	if got := len(net.dialTimes("black-hole")); got != 1 {
		t.Fatalf("%d dials of the hanging address, want 1: its second caller waits for the first's", got)
	}
}

// Close fails calls in flight and later ones with ErrClientClosed and
// leaves no goroutine behind.
func TestLinksClose(t *testing.T) {
	const callers = 8
	net := newProbeNet("inproc")
	release := make(chan struct{})
	srv := serveAt(t, net.Network, "", release)
	before := runtime.NumGoroutine()
	links := NewLinks(net, 2, time.Second)
	link := links.To(srv.Addr(), wire.BinaryCodec{})
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			var resp wire.Response
			errs <- link.Do(&wire.Request{Op: wire.OpGet, Key: []byte("k")}, &resp)
		}()
	}
	waitFor(t, 5*time.Second, "every call to be in flight", func() bool { return links.Stats().Load == callers })
	links.Close()
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, ErrClientClosed) {
			t.Fatalf("call in flight at Close: %v", err)
		}
	}
	if err := nop(link); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after Close: %v", err)
	}
	if err := nop(links.To("never-seen", wire.BinaryCodec{})); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call on a link made after Close: %v", err)
	}
	close(release)
	waitFor(t, 5*time.Second, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// BenchmarkLinksGet is what every chain forward, relay, propagation, routed
// op and direct read pays to find its connection: links is Links.To + get;
// mutex-map is the shape the six caches it replaced had — a mutex, a map of
// pools, Pool.Get.
func BenchmarkLinksGet(b *testing.B) {
	net, _ := transport.Lookup("inproc")
	var addrs []string
	for i := 0; i < 6; i++ {
		addrs = append(addrs, serveAt(b, net, "", nil).Addr())
	}
	codec := wire.BinaryCodec{}
	b.Run("links", func(b *testing.B) {
		links := NewLinks(net, 2, 0)
		defer links.Close()
		for _, a := range addrs {
			if err := nop(links.To(a, codec)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				if c, err := links.To(addrs[i%len(addrs)], codec).get(); err != nil || c == nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("mutex-map", func(b *testing.B) {
		var mu sync.Mutex
		pools := map[string]*Pool{}
		for _, a := range addrs {
			p, err := DialPool(net, a, codec, 2)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			pools[a] = p
		}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				mu.Lock()
				p := pools[addrs[i%len(addrs)]]
				mu.Unlock()
				if p.Get() == nil {
					b.Error("no connection")
					return
				}
			}
		})
	})
}
