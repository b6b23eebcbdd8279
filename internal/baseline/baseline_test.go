// Package baseline_test holds what must be true of all three baselines alike:
// they serve through the same accept owner (transport.Server) and the same
// frame loop (wire.ServeConn) as the system they are measured against.
package baseline_test

import (
	"bufio"
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/baseline/dynamo"
	"bespokv/internal/baseline/dynomite"
	"bespokv/internal/baseline/twemproxy"
	"bespokv/internal/datalet"
	"bespokv/internal/faultnet"
	"bespokv/internal/metrics"
	"bespokv/internal/store"
	"bespokv/internal/store/ht"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

var codec = wire.BinaryCodec{}

func backend(t *testing.T) string {
	t.Helper()
	d, err := datalet.Serve(datalet.Config{
		Name:      "backend",
		Network:   transport.Inproc{},
		Codec:     codec,
		NewEngine: func(string) (store.Engine, error) { return ht.New(), nil },
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d.Addr()
}

// system starts one baseline on net and returns the address a client talks to.
type system struct {
	name      string
	listeners int
	start     func(t *testing.T, net transport.Network) string
}

var systems = []system{
	{"twemproxy", 1, func(t *testing.T, net transport.Network) string {
		p, err := twemproxy.Serve(twemproxy.Config{Network: net, Codec: codec, Backends: []string{backend(t)}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p.Addr()
	}},
	{"dynomite", 1, func(t *testing.T, net transport.Network) string {
		p, err := dynomite.Serve(dynomite.Config{Network: net, Codec: codec, BackendAddr: backend(t)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p.Addr()
	}},
	{"dynamo", 3, func(t *testing.T, net transport.Network) string {
		// One copy per key, so that a read sees the write before it: further
		// copies are made asynchronously.
		c, err := dynamo.Start(dynamo.Options{
			Network: net, Codec: codec, Nodes: 3, ReplicationFactor: 1, Profile: dynamo.VoldemortProfile(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c.Addrs()[0]
	}},
}

// One transient Accept error (EMFILE, ECONNABORTED) used to end a baseline's
// accept loop for good: it kept listening and served nobody for the life of
// the process. Now it is logged, counted and retried.
func TestAcceptLoopOutlivesTransientErrors(t *testing.T) {
	const fails = 3
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			errs := metrics.Default.Counter("bespokv_baseline_accept_errors_total", "system", sys.name)
			before := errs.Value()
			addr := sys.start(t, faultnet.FailAccepts(transport.Inproc{}, fails))
			cli, err := datalet.Dial(transport.Inproc{}, addr, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			cli.SetCallTimeout(5 * time.Second)
			start := time.Now()
			var resp wire.Response
			if err := cli.Do(&wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v")}, &resp); err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("put after %d accept errors: %v %+v", fails, err, resp)
			}
			if err := cli.Do(&wire.Request{Op: wire.OpGet, Key: []byte("k")}, &resp); err != nil || string(resp.Value) != "v" {
				t.Fatalf("get after %d accept errors: %v %+v", fails, err, resp)
			}
			// The pauses after three errors add up to 7 ms per listener.
			if d := time.Since(start); d > time.Second {
				t.Fatalf("round trips took %v", d)
			}
			want := int64(fails * sys.listeners)
			for deadline := time.Now().Add(5 * time.Second); errs.Value()-before != want; {
				if time.Now().After(deadline) {
					t.Fatalf("accept errors counted: %d, want %d", errs.Value()-before, want)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// countingNet counts the Writes on the connections its listeners accept: the
// server's side of every connection, where one Write is one flush.
type countingNet struct {
	transport.Network
	writes *atomic.Int64
}

func (n countingNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{l, n.writes}, nil
}

type countingListener struct {
	transport.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	transport.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// The proxies used to flush once per response through 4 KiB buffers, while
// the controlet they are compared with flushes once per drained burst: over
// tcp the "upper bound" paid a syscall per reply that bespokv did not. A
// burst that arrives in one read is now answered in fewer writes than it has
// requests.
func TestPipelinedBurstIsFlushCoalesced(t *testing.T) {
	const burst = 32
	for _, sys := range systems[:2] { // dynamo's private loop already coalesced
		t.Run(sys.name, func(t *testing.T) {
			var writes atomic.Int64
			addr := sys.start(t, countingNet{transport.Inproc{}, &writes})
			conn, err := transport.Inproc{}.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var frames bytes.Buffer
			bw := bufio.NewWriter(&frames)
			for i := 0; i < burst; i++ {
				req := wire.Request{ID: uint64(i + 1), Op: wire.OpPut, Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte("v")}
				if err := codec.WriteRequest(bw, &req); err != nil {
					t.Fatal(err)
				}
			}
			writes.Store(0)
			if _, err := conn.Write(frames.Bytes()); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(conn)
			for i := 0; i < burst; i++ {
				var resp wire.Response
				if err := codec.ReadResponse(br, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.ID != uint64(i+1) || resp.Status != wire.StatusOK {
					t.Fatalf("response %d: %+v", i, resp)
				}
			}
			if n := writes.Load(); n >= burst {
				t.Fatalf("%d requests in one burst answered with %d writes", burst, n)
			}
		})
	}
}
