package datalet

import (
	"errors"
	"fmt"
	"io"
	"runtime"
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
// on. Each round goes through Do, a Start waited after a yield, or two
// Starts waited in reverse order, so inline and pipelined calls share the
// connection. Run under
// -race this also exercises the sender/reader locking.
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
						var resp, resp2 wire.Response
						for i := 0; i < opsPerG; i++ {
							key := []byte(fmt.Sprintf("k-%d-%d", g, i))
							val := []byte(fmt.Sprintf("v-%d-%d", g, i))
							put := wire.Request{Op: wire.OpPut, Key: key, Value: val}
							var err error
							switch (g + i) % 3 {
							case 0:
								err = cli.Do(&put, &resp)
							case 1:
								p := cli.Start(&put, &resp)
								runtime.Gosched() // work between Start and Wait
								err = p.Wait()
							case 2:
								// A second frame started behind the put
								// and waited first: the reader must
								// collect the put's reply for it.
								nop := wire.Request{Op: wire.OpNop}
								p := cli.Start(&put, &resp)
								p2 := cli.Start(&nop, &resp2)
								runtime.Gosched() // work between Start and Wait
								if err = p2.Wait(); err == nil && resp2.ID != nop.ID {
									err = fmt.Errorf("nop response ID %d for request %d", resp2.ID, nop.ID)
								}
								if werr := p.Wait(); err == nil {
									err = werr
								}
							}
							if err != nil {
								errCh <- err
								return
							}
							if resp.ID != put.ID {
								errCh <- fmt.Errorf("put response ID %d for request %d", resp.ID, put.ID)
								return
							}
							get := wire.Request{Op: wire.OpGet, Key: key}
							if i%2 == 0 {
								err = cli.Do(&get, &resp)
							} else {
								err = cli.Start(&get, &resp).Wait()
							}
							if err != nil {
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

// TestPipelineStartStress interleaves fan-outs — a batch of Starts, then
// their Waits — with blocking Dos on the same connection and checks every
// completion.
func TestPipelineStartStress(t *testing.T) {
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
				acks := make([]Pending, width)
				for i := 0; i < width; i++ {
					reqs[i] = &wire.Request{
						Op:    wire.OpPut,
						Key:   []byte(fmt.Sprintf("a-%d-%d-%d", g, b, i)),
						Value: []byte(fmt.Sprintf("v-%d-%d-%d", g, b, i)),
					}
					resps[i] = new(wire.Response)
					acks[i] = cli.Start(reqs[i], resps[i])
				}
				for i := 0; i < width; i++ {
					if err := acks[i].Wait(); err != nil {
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

func (s slowEngine) AppendGet(dst, key []byte) ([]byte, uint64, bool, error) {
	time.Sleep(s.delay)
	return s.Engine.AppendGet(dst, key)
}

// TestPipelineMidStreamFailure kills the server while dozens of Do and
// Start/Wait calls are in flight: every one must complete with an error (no
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
							err = cli.Start(&req, &resp).Wait()
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
			if err := cli.Start(&wire.Request{Op: wire.OpNop}, &resp).Wait(); err == nil {
				t.Fatal("Start after connection failure must error")
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

// An inline Start holds the send buffer only until its flush: a call queued
// behind it reaches the server while the starter has not waited yet.
func TestStartReleasesSendBuffer(t *testing.T) {
	srv, cli := newServer(t, "binary", nil)
	net, _ := transport.Lookup("inproc")
	probe, err := Dial(net, srv.Addr(), wire.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()

	var r1, r2 wire.Response
	p := cli.Start(&wire.Request{Op: wire.OpPut, Key: []byte("a"), Value: []byte("1")}, &r1)
	if !p.inline {
		t.Fatal("a Start on an idle connection was queued, not sent inline")
	}
	queued := cli.Start(&wire.Request{Op: wire.OpPut, Key: []byte("b"), Value: []byte("2")}, &r2)
	if queued.inline {
		t.Fatal("a Start behind an unwaited inline one was sent inline")
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var resp wire.Response
		if err := probe.Do(&wire.Request{Op: wire.OpGet, Key: []byte("b")}, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status == wire.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a call queued behind an unwaited inline Start never reached the server")
		}
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := queued.Wait(); err != nil {
		t.Fatal(err)
	}
}

// No order of Waits deadlocks: a call started behind an inline one and
// waited first completes, because the reader reads the inline reply on its
// starter's behalf.
func TestWaitOrderFree(t *testing.T) {
	_, cli := newServer(t, "binary", nil)
	var r1, r2 wire.Response
	p1 := cli.Start(&wire.Request{Op: wire.OpPut, Key: []byte("a"), Value: []byte("1")}, &r1)
	p2 := cli.Start(&wire.Request{Op: wire.OpGet, Key: []byte("a")}, &r2)
	if !p1.inline || p2.inline {
		t.Fatalf("inline = %v, %v; want the first call inline and the second queued", p1.inline, p2.inline)
	}
	done := make(chan error, 1)
	go func() { done <- p2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a call waited before the inline call ahead of it never completed")
	}
	if err := p1.Wait(); err != nil {
		t.Fatal(err)
	}
	if r1.Status != wire.StatusOK || string(r2.Value) != "1" {
		t.Fatalf("put %s, get %q; want OK and \"1\"", r1.Status, r2.Value)
	}
}

// The watchdog fails no connection whose reply has arrived: a caller busy
// elsewhere for longer than the call timeout between Start and Wait is not
// a stalled pipeline. A blackholed peer still fails with ErrCallTimeout,
// whether its caller waits at once or later.
func TestStartedCallOutlivesWatchdog(t *testing.T) {
	const timeout = 40 * time.Millisecond
	_, cli := newServer(t, "binary", nil)
	cli.SetCallTimeout(timeout)
	var resp wire.Response
	p := cli.Start(&wire.Request{Op: wire.OpPut, Key: []byte("a"), Value: []byte("1")}, &resp)
	if !p.inline {
		t.Fatal("a Start on an idle connection was queued, not sent inline")
	}
	time.Sleep(6 * timeout) // local work
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait after local work: %v", err)
	}
	if err := cli.Err(); err != nil {
		t.Fatalf("connection failed while its reply sat unread: %v", err)
	}

	net, _ := transport.Lookup("inproc")
	ln, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // accept and swallow every frame, answer none
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, conn) }()
		}
	}()
	for _, work := range []time.Duration{0, 6 * timeout} {
		bh, err := Dial(net, ln.Addr(), wire.BinaryCodec{})
		if err != nil {
			t.Fatal(err)
		}
		bh.SetCallTimeout(timeout)
		start := time.Now()
		p := bh.Start(&wire.Request{Op: wire.OpNop}, &resp)
		time.Sleep(work)
		if err := p.Wait(); !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("Wait after %v on a blackholed peer: %v, want ErrCallTimeout", work, err)
		}
		if took := time.Since(start); took > work+50*timeout {
			t.Fatalf("blackholed call took %v to fail", took)
		}
		bh.Close()
	}
}
