package datalet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/store"
	"bespokv/internal/store/ht"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// tcpAddr returns "" for inproc (which invents addresses) and a loopback
// bind request for TCP.
func listenAddr(network string) string {
	if network == "tcp" {
		return "127.0.0.1:0"
	}
	return ""
}

// TestPipelineStress hammers one pipelined client from many goroutines over
// both transports and both codecs, checking that every response carries its
// own request's data — the FIFO-matching invariant the whole design rests
// on. Run under -race this also exercises the sender/reader locking.
func TestPipelineStress(t *testing.T) {
	const (
		goroutines = 32
		opsPerG    = 150
	)
	for _, tn := range []string{"inproc", "tcp"} {
		for _, cn := range []string{"binary", "text"} {
			tn, cn := tn, cn
			t.Run(tn+"/"+cn, func(t *testing.T) {
				t.Parallel()
				net, _ := transport.Lookup(tn)
				codec, _ := wire.LookupCodec(cn)
				srv, err := Serve(Config{
					Name:      "stress",
					Network:   net,
					Addr:      listenAddr(tn),
					Codec:     codec,
					NewEngine: func(string) (store.Engine, error) { return ht.New(), nil },
					Logf:      t.Logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				cli, err := Dial(net, srv.Addr(), codec)
				if err != nil {
					t.Fatal(err)
				}
				defer cli.Close()

				var wg sync.WaitGroup
				errCh := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						var resp wire.Response
						for i := 0; i < opsPerG; i++ {
							key := []byte(fmt.Sprintf("k-%d-%d", g, i))
							val := []byte(fmt.Sprintf("v-%d-%d", g, i))
							put := wire.Request{Op: wire.OpPut, Key: key, Value: val}
							if err := cli.Do(&put, &resp); err != nil {
								errCh <- err
								return
							}
							if resp.ID != put.ID {
								errCh <- fmt.Errorf("put response ID %d for request %d", resp.ID, put.ID)
								return
							}
							get := wire.Request{Op: wire.OpGet, Key: key}
							if err := cli.Do(&get, &resp); err != nil {
								errCh <- err
								return
							}
							if resp.ID != get.ID {
								errCh <- fmt.Errorf("get response ID %d for request %d", resp.ID, get.ID)
								return
							}
							// The crucial check: a cross-matched response
							// would hand us some other goroutine's value.
							if string(resp.Value) != string(val) {
								errCh <- fmt.Errorf("get %q returned %q, want %q", key, resp.Value, val)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestPipelineDoAsyncStress interleaves batches of DoAsync with blocking
// Dos on the same connection and checks every completion.
func TestPipelineDoAsyncStress(t *testing.T) {
	_, cli := newServer(t, "binary", nil)
	const (
		goroutines = 16
		batches    = 40
		width      = 8
	)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				reqs := make([]*wire.Request, width)
				resps := make([]*wire.Response, width)
				acks := make([]<-chan error, width)
				for i := 0; i < width; i++ {
					reqs[i] = &wire.Request{
						Op:    wire.OpPut,
						Key:   []byte(fmt.Sprintf("a-%d-%d-%d", g, b, i)),
						Value: []byte(fmt.Sprintf("v-%d-%d-%d", g, b, i)),
					}
					resps[i] = new(wire.Response)
					acks[i] = cli.DoAsync(reqs[i], resps[i])
				}
				for i := 0; i < width; i++ {
					if err := <-acks[i]; err != nil {
						errCh <- err
						return
					}
					if resps[i].ID != reqs[i].ID {
						errCh <- fmt.Errorf("async response ID %d for request %d", resps[i].ID, reqs[i].ID)
						return
					}
				}
				// A blocking read through the same pipe.
				var resp wire.Response
				get := wire.Request{Op: wire.OpGet, Key: reqs[width-1].Key}
				if err := cli.Do(&get, &resp); err != nil {
					errCh <- err
					return
				}
				if string(resp.Value) != string(reqs[width-1].Value) {
					errCh <- fmt.Errorf("async get returned %q, want %q", resp.Value, reqs[width-1].Value)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// slowEngine delays reads so in-flight requests reliably pile up.
type slowEngine struct {
	store.Engine
	delay time.Duration
}

func (s slowEngine) Get(key []byte) ([]byte, uint64, bool, error) {
	time.Sleep(s.delay)
	return s.Engine.Get(key)
}

// TestPipelineMidStreamFailure kills the server while dozens of Do and
// DoAsync calls are in flight: every one must complete with an error (no
// deadlock, no lost completion), and the client must stay failed.
func TestPipelineMidStreamFailure(t *testing.T) {
	for _, tn := range []string{"inproc", "tcp"} {
		tn := tn
		t.Run(tn, func(t *testing.T) {
			t.Parallel()
			net, _ := transport.Lookup(tn)
			codec, _ := wire.LookupCodec("binary")
			srv, err := Serve(Config{
				Name:    "failing",
				Network: net,
				Addr:    listenAddr(tn),
				Codec:   codec,
				NewEngine: func(string) (store.Engine, error) {
					return slowEngine{ht.New(), 2 * time.Millisecond}, nil
				},
				Logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			cli, err := Dial(net, srv.Addr(), codec)
			if err != nil {
				srv.Close()
				t.Fatal(err)
			}
			defer cli.Close()

			const callers = 32
			var started, failed atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var resp wire.Response
					for i := 0; ; i++ {
						req := wire.Request{Op: wire.OpGet, Key: []byte(fmt.Sprintf("k%d", g))}
						started.Add(1)
						var err error
						if i%2 == 0 {
							err = cli.Do(&req, &resp)
						} else {
							err = <-cli.DoAsync(&req, &resp)
						}
						if err != nil {
							failed.Add(1)
							return
						}
					}
				}(g)
			}
			// Let the pipeline fill, then yank the server.
			time.Sleep(20 * time.Millisecond)
			srv.Close()

			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("in-flight calls deadlocked after server failure")
			}
			if failed.Load() != callers {
				t.Fatalf("%d/%d callers saw the failure", failed.Load(), callers)
			}
			// Sticky: the client stays dead and fails fast.
			var resp wire.Response
			start := time.Now()
			if err := cli.Do(&wire.Request{Op: wire.OpNop}, &resp); err == nil {
				t.Fatal("Do after connection failure must error")
			}
			if err := <-cli.DoAsync(&wire.Request{Op: wire.OpNop}, &resp); err == nil {
				t.Fatal("DoAsync after connection failure must error")
			}
			if time.Since(start) > time.Second {
				t.Fatal("failed client must reject immediately, not block")
			}
			t.Logf("transport %s: %d calls issued, %d callers failed", tn, started.Load(), failed.Load())
		})
	}
}

// TestPipelineClientClose closes the client with calls in flight; they all
// complete with ErrClientClosed and later calls fail with it too.
func TestPipelineClientClose(t *testing.T) {
	srv, err := func() (*Server, error) {
		net, _ := transport.Lookup("inproc")
		codec, _ := wire.LookupCodec("binary")
		return Serve(Config{
			Name:    "closing",
			Network: net,
			Codec:   codec,
			NewEngine: func(string) (store.Engine, error) {
				return slowEngine{ht.New(), 2 * time.Millisecond}, nil
			},
			Logf: func(string, ...any) {},
		})
	}()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	cli, err := Dial(net, srv.Addr(), codec)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var resp wire.Response
			for {
				req := wire.Request{Op: wire.OpGet, Key: []byte{byte(g)}}
				if err := cli.Do(&req, &resp); err != nil {
					return
				}
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	var resp wire.Response
	if err := cli.Do(&wire.Request{Op: wire.OpNop}, &resp); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Do after Close: %v, want ErrClientClosed", err)
	}
}

// TestExportSharesPipeline runs an Export stream while other goroutines
// keep issuing point reads on the same connection; responses queue behind
// the stream but everything completes correctly.
func TestExportSharesPipeline(t *testing.T) {
	_, cli := newServer(t, "binary", nil)
	var resp wire.Response
	const n = 1000
	for i := 0; i < n; i++ {
		req := wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("e%04d", i)), Value: []byte("x")}
		if err := cli.Do(&req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 9)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var r wire.Response
			for i := 0; i < 50; i++ {
				key := []byte(fmt.Sprintf("e%04d", (g*37+i)%n))
				req := wire.Request{Op: wire.OpGet, Key: key}
				if err := cli.Do(&req, &r); err != nil {
					errCh <- err
					return
				}
				if r.Status != wire.StatusOK {
					errCh <- fmt.Errorf("get %q: %s", key, r.Status)
					return
				}
			}
		}(g)
	}
	got := 0
	if err := cli.Export("", 0, func(kv wire.KV, _ bool) error {
		if !strings.HasPrefix(string(kv.Key), "e") {
			return fmt.Errorf("unexpected key %q", kv.Key)
		}
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("export saw %d pairs, want %d", got, n)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The connection must still be healthy after the stream.
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestExportConsumerAbort verifies the documented contract: a consumer
// error aborts the stream AND fails the connection (the remaining frames
// cannot be parsed away safely).
func TestExportConsumerAbort(t *testing.T) {
	_, cli := newServer(t, "binary", nil)
	var resp wire.Response
	for i := 0; i < 600; i++ {
		req := wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("a%04d", i)), Value: []byte("x")}
		if err := cli.Do(&req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("consumer boom")
	err := cli.Export("", 0, func(wire.KV, bool) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Export: %v, want consumer error", err)
	}
	if cli.Err() == nil {
		t.Fatal("aborted export must fail the connection")
	}
}
