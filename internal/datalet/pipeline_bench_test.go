package datalet

import (
	"bufio"
	"fmt"
	"sync"
	"testing"

	"bespokv/internal/store"
	"bespokv/internal/store/ht"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// lockstepClient reproduces the pre-pipelining client for comparison: one
// mutex held across write → flush → read, so concurrent callers serialize
// and the connection carries exactly one request per round-trip.
type lockstepClient struct {
	mu    sync.Mutex
	conn  transport.Conn
	codec wire.Codec
	br    *bufio.Reader
	bw    *bufio.Writer
	seq   uint64
}

func dialLockstep(network transport.Network, addr string, codec wire.Codec) (*lockstepClient, error) {
	conn, err := network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &lockstepClient{
		conn:  conn,
		codec: codec,
		br:    bufio.NewReader(conn),
		bw:    bufio.NewWriter(conn),
	}, nil
}

func (c *lockstepClient) Do(req *wire.Request, resp *wire.Response) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	req.ID = c.seq
	if err := c.codec.WriteRequest(c.bw, req); err != nil {
		return err
	}
	resp.Reset()
	return c.codec.ReadResponse(c.br, resp)
}

func (c *lockstepClient) Close() error { return c.conn.Close() }

type benchDoer interface {
	Do(*wire.Request, *wire.Response) error
}

func benchServer(b *testing.B, tn string) (*Server, transport.Network, wire.Codec) {
	b.Helper()
	net, err := transport.Lookup(tn)
	if err != nil {
		b.Fatal(err)
	}
	codec, _ := wire.LookupCodec("binary")
	srv, err := Serve(Config{
		Name:      "bench",
		Network:   net,
		Addr:      listenAddr(tn),
		Codec:     codec,
		NewEngine: func(string) (store.Engine, error) { return ht.New(), nil },
		Logf:      func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv, net, codec
}

// runConcurrent drives b.N GETs through cli from c concurrent callers.
func runConcurrent(b *testing.B, cli benchDoer, callers int) {
	b.Helper()
	var seed wire.Response
	if err := cli.Do(&wire.Request{Op: wire.OpPut, Key: []byte("bench-key"), Value: []byte("bench-value")}, &seed); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / callers
	for g := 0; g < callers; g++ {
		n := per
		if g == 0 {
			n += b.N % callers
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			key := []byte("bench-key")
			var req wire.Request
			var resp wire.Response
			for i := 0; i < n; i++ {
				req = wire.Request{Op: wire.OpGet, Key: key}
				if err := cli.Do(&req, &resp); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

var benchCallers = []int{1, 4, 16, 64}

// BenchmarkPipelined measures the multiplexed client: one connection, all
// callers in flight together, coalesced flushes.
func BenchmarkPipelined(b *testing.B) {
	for _, tn := range []string{"inproc", "tcp"} {
		b.Run(tn, func(b *testing.B) {
			for _, c := range benchCallers {
				b.Run(fmt.Sprintf("c%d", c), func(b *testing.B) {
					srv, net, codec := benchServer(b, tn)
					cli, err := Dial(net, srv.Addr(), codec)
					if err != nil {
						b.Fatal(err)
					}
					defer cli.Close()
					runConcurrent(b, cli, c)
				})
			}
		})
	}
}

// BenchmarkLockstep measures the old design on the same workload: the
// mutex serializes callers, so a single connection is bound to 1/RTT.
func BenchmarkLockstep(b *testing.B) {
	for _, tn := range []string{"inproc", "tcp"} {
		b.Run(tn, func(b *testing.B) {
			for _, c := range benchCallers {
				b.Run(fmt.Sprintf("c%d", c), func(b *testing.B) {
					srv, net, codec := benchServer(b, tn)
					cli, err := dialLockstep(net, srv.Addr(), codec)
					if err != nil {
						b.Fatal(err)
					}
					defer cli.Close()
					runConcurrent(b, cli, c)
				})
			}
		})
	}
}

// BenchmarkPipelinedWindow measures 16 concurrent callers each keeping a
// window of 16 started requests in flight on one shared connection, then
// waiting for them all. No caller in the tree has this shape (fan-outs start
// from one goroutine, or from a few with a handful of frames each); it
// isolates the connection's capacity from per-call scheduling costs, each
// caller amortizing its own wakeup across the window.
func BenchmarkPipelinedWindow(b *testing.B) {
	const callers = 16
	const window = 16
	for _, tn := range []string{"inproc", "tcp"} {
		b.Run(tn, func(b *testing.B) {
			srv, net, codec := benchServer(b, tn)
			cli, err := Dial(net, srv.Addr(), codec)
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			var seed wire.Response
			if err := cli.Do(&wire.Request{Op: wire.OpPut, Key: []byte("bench-key"), Value: []byte("bench-value")}, &seed); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / callers
			for g := 0; g < callers; g++ {
				n := per
				if g == 0 {
					n += b.N % callers
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					key := []byte("bench-key")
					reqs := make([]*wire.Request, window)
					resps := make([]*wire.Response, window)
					acks := make([]Pending, window)
					for i := range reqs {
						reqs[i] = new(wire.Request)
						resps[i] = new(wire.Response)
					}
					for done := 0; done < n; {
						w := window
						if n-done < w {
							w = n - done
						}
						for i := 0; i < w; i++ {
							*reqs[i] = wire.Request{Op: wire.OpGet, Key: key}
							acks[i] = cli.Start(reqs[i], resps[i])
						}
						for i := 0; i < w; i++ {
							if err := acks[i].Wait(); err != nil {
								b.Error(err)
								return
							}
						}
						done += w
					}
				}(n)
			}
			wg.Wait()
		})
	}
}

// BenchmarkPipelinedAsync measures one caller's fan-out: it starts a window
// of 16 requests, then waits for each — the shape of the mover's snapshot
// and GC chunks and of the dynamo baseline's replication rounds.
func BenchmarkPipelinedAsync(b *testing.B) {
	const window = 16
	srv, net, codec := benchServer(b, "inproc")
	cli, err := Dial(net, srv.Addr(), codec)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	var seed wire.Response
	if err := cli.Do(&wire.Request{Op: wire.OpPut, Key: []byte("bench-key"), Value: []byte("bench-value")}, &seed); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	reqs := make([]*wire.Request, window)
	resps := make([]*wire.Response, window)
	acks := make([]Pending, window)
	for i := range reqs {
		reqs[i] = new(wire.Request)
		resps[i] = new(wire.Response)
	}
	for done := 0; done < b.N; {
		w := window
		if b.N-done < w {
			w = b.N - done
		}
		for i := 0; i < w; i++ {
			*reqs[i] = wire.Request{Op: wire.OpGet, Key: []byte("bench-key")}
			acks[i] = cli.Start(reqs[i], resps[i])
		}
		for i := 0; i < w; i++ {
			if err := acks[i].Wait(); err != nil {
				b.Fatal(err)
			}
		}
		done += w
	}
}
