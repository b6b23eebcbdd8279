package datalet

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bespokv/internal/faultnet"
	"bespokv/internal/store"
	"bespokv/internal/store/ht"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// A datalet with a local listener serves its TCP address and its socket
// file at once, out of one engine; Close ends the connections of both and
// leaves no socket file behind.
func TestLocalListenerServesBesideMain(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "d")
	srv, err := Serve(Config{
		Name:      "two-doors",
		Network:   transport.TCP{},
		Addr:      "127.0.0.1:0",
		LocalAddr: sock,
		Codec:     wire.BinaryCodec{},
		NewEngine: func(string) (store.Engine, error) { return ht.New(), nil },
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.LocalAddr() != sock {
		t.Fatalf("LocalAddr = %q, want %q", srv.LocalAddr(), sock)
	}
	remote, err := Dial(transport.TCP{}, srv.Addr(), wire.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	local, err := Dial(transport.Unix{}, sock, wire.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	// Both doors at once, each reading what the other wrote.
	const n = 200
	var wg sync.WaitGroup
	for i, c := range []*Client{remote, local} {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				var resp wire.Response
				req := wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("c%d-%d", i, j)), Value: []byte("v")}
				if err := c.Do(&req, &resp); err != nil || resp.Status != wire.StatusOK {
					t.Errorf("put via door %d: %v %+v", i, err, resp)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, c := range []*Client{remote, local} {
		r := do(t, c, wire.Request{Op: wire.OpGet, Key: []byte(fmt.Sprintf("c%d-%d", 1-i, n-1))})
		if r.Status != wire.StatusOK {
			t.Fatalf("door %d does not see the other door's write: %+v", i, r)
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sock); !os.IsNotExist(err) {
		t.Fatalf("socket file survived Close: %v", err)
	}
	// Close waited for both connections' serving goroutines, so both
	// clients now find their connection gone.
	for i, c := range []*Client{remote, local} {
		var resp wire.Response
		if err := c.Do(&wire.Request{Op: wire.OpNop}, &resp); err == nil {
			t.Fatalf("door %d still answers after Close", i)
		}
	}
	if _, err := Dial(transport.Unix{}, sock, wire.BinaryCodec{}); err == nil {
		t.Fatal("local listener still accepts after Close")
	}
}

// A local listener that cannot bind fails Serve and gives the main address
// back.
func TestLocalListenerFailureFailsServe(t *testing.T) {
	cfg := Config{
		Network:   transport.Inproc{},
		Addr:      "two-doors-one-broken",
		LocalAddr: filepath.Join(t.TempDir(), "no-such-dir", "d"),
		Codec:     wire.BinaryCodec{},
		NewEngine: func(string) (store.Engine, error) { return ht.New(), nil },
	}
	if _, err := Serve(cfg); err == nil {
		t.Fatal("Serve succeeded without its local listener")
	}
	cfg.LocalAddr = ""
	srv, err := Serve(cfg)
	if err != nil {
		t.Fatalf("main address not released by the failed Serve: %v", err)
	}
	srv.Close()
}

// One transient Accept error (EMFILE, ECONNABORTED) used to end the accept
// loop for good; now it is counted and retried.
func TestAcceptLoopOutlivesTransientErrors(t *testing.T) {
	const fails = 3
	before := srvAcceptErrs.Value()
	srv, err := Serve(Config{
		Name:      "flaky-accept",
		Network:   faultnet.FailAccepts(transport.Inproc{}, fails),
		Codec:     wire.BinaryCodec{},
		NewEngine: func(string) (store.Engine, error) { return ht.New(), nil },
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(transport.Inproc{}, srv.Addr(), wire.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetCallTimeout(5 * time.Second)
	if err := cli.Ping(); err != nil {
		t.Fatalf("server deaf after %d accept errors: %v", fails, err)
	}
	if got := srvAcceptErrs.Value() - before; got != fails {
		t.Fatalf("accept errors counted: %d, want %d", got, fails)
	}
}
