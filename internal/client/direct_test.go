package client

import (
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/store"
	"bespokv/internal/store/ht"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// startLeasedDatalet serves a datalet on addr holding key=value and an
// epoch lease for epoch, as its controlet would have granted it.
func startLeasedDatalet(t *testing.T, addr string, epoch uint64, key, value string) *datalet.Server {
	t.Helper()
	net, _ := transport.Lookup("inproc")
	srv, err := datalet.Serve(datalet.Config{
		Name:      "direct-restart",
		Network:   net,
		Addr:      addr,
		Codec:     wire.BinaryCodec{},
		NewEngine: func(string) (store.Engine, error) { return ht.New(), nil },
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := datalet.Dial(net, addr, wire.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, req := range []wire.Request{
		{Op: wire.OpPut, Key: []byte(key), Value: []byte(value)},
		{Op: wire.OpEpochSet, Epoch: epoch},
	} {
		var resp wire.Response
		if err := cli.Do(&req, &resp); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("%s: %v %+v", req.Op, err, resp)
		}
	}
	return srv
}

// Direct reads come back after the datalet they go to is restarted on the
// same address and given its lease again: nobody has to drop the dead
// connections for the client, and the reads in between fall back through
// the controlet instead of failing. (The pool cache this replaced kept the
// dead pool for the life of the client: 0 direct reads after the restart.)
func TestDirectReadsResumeAfterDataletRestart(t *testing.T) {
	const daddr = "direct-restart-datalet"
	var viaControlet atomic.Int64
	caddr := fakeServer(t, func(req *wire.Request, resp *wire.Response) {
		viaControlet.Add(1)
		resp.Status = wire.StatusOK
		resp.Value = []byte("from-controlet")
	})
	m := staticMapTo(caddr)
	m.Shards[0].Replicas[0].DataletAddr = daddr
	net, _ := transport.Lookup("inproc")
	c, err := New(Config{Network: net, Codec: wire.BinaryCodec{}, StaticMap: m, DirectReads: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	get := func() (direct bool) {
		t.Helper()
		before := clientDirectReads.Value()
		v, found, err := c.Get("", []byte("k"))
		if err != nil || !found {
			t.Fatalf("get: %q %v %v", v, found, err)
		}
		direct = clientDirectReads.Value() > before
		if want := map[bool]string{true: "from-datalet", false: "from-controlet"}[direct]; string(v) != want {
			t.Fatalf("get returned %q, want %q", v, want)
		}
		return direct
	}

	srv := startLeasedDatalet(t, daddr, m.Epoch, "k", "from-datalet")
	if !get() {
		t.Fatal("first read was not served directly")
	}
	srv.Close()
	for i := 0; i < 20; i++ {
		if get() {
			t.Fatal("a read was served directly by a closed datalet")
		}
	}
	if viaControlet.Load() != 20 {
		t.Fatalf("%d reads through the controlet while the datalet was away, want 20", viaControlet.Load())
	}

	startLeasedDatalet(t, daddr, m.Epoch, "k", "from-datalet")
	back := time.Now()
	for !get() {
		if time.Since(back) > 2*transport.BackoffMax {
			t.Fatalf("no direct read %v after the datalet came back", time.Since(back))
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("direct reads resumed %v after the restart", time.Since(back))
	for i := 0; i < 1000; i++ {
		if !get() {
			t.Fatalf("read %d after the restart fell back through the controlet", i)
		}
	}
}
