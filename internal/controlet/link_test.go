package controlet

import (
	"bufio"
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/faultnet"
	"bespokv/internal/store"
	"bespokv/internal/store/ht"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// linkLayout is one way of wiring a controlet to its datalet.
type linkLayout struct {
	name string
	net  transport.Network
	addr string // listen address of both servers
	unix bool   // the datalet also listens on a socket file, the controlet dials it
}

var linkLayouts = []linkLayout{
	{name: "inproc", net: transport.Inproc{}},
	{name: "tcp", net: transport.TCP{}, addr: "127.0.0.1:0"},
	{name: "tcp+unix", net: transport.TCP{}, addr: "127.0.0.1:0", unix: true},
}

// startPairOn boots one MS+SC datalet+controlet pair in the given layout
// with a static one-node map, and returns the controlet.
func startPairOn(tb testing.TB, l linkLayout, cfg Config) *Server {
	tb.Helper()
	dcfg := datalet.Config{
		Name: "d0", Network: l.net, Addr: l.addr, Codec: wire.BinaryCodec{},
		NewEngine: func(string) (store.Engine, error) { return ht.New(), nil },
		Logf:      tb.Logf,
	}
	if l.unix {
		dcfg.LocalAddr = filepath.Join(tb.TempDir(), "d0")
	}
	d, err := datalet.Serve(dcfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	cfg.NodeID, cfg.ShardID = "n0", "shard-0"
	if cfg.Network == nil {
		cfg.Network = l.net
	}
	cfg.DataAddr, cfg.CtlAddr = l.addr, l.addr
	cfg.Codec = wire.BinaryCodec{}
	cfg.Mode = topology.Mode{Topology: topology.MS, Consistency: topology.Strong}
	cfg.Logf = tb.Logf
	if cfg.DataletAddr == "" {
		cfg.DataletAddr = d.Addr()
		if l.unix {
			cfg.LocalDatalet = transport.UnixAddr(d.LocalAddr())
		}
	}
	s, err := Serve(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	s.SetMap(&topology.Map{
		Epoch: 5, Mode: cfg.Mode, Partitioner: topology.HashPartitioner,
		Shards: []topology.Shard{{ID: "shard-0", Replicas: []topology.Node{s.Node()}}},
	})
	return s
}

// The server side of a routed GET — controlet connection loop, dispatch, the
// hop to the local datalet, its connection loop, the engine and back —
// allocates nothing, on the in-process transport and over kernel sockets
// alike. The caller here is a raw connection replaying one encoded frame, so
// whatever AllocsPerRun (which counts process-wide) sees is the servers'.
func TestRoutedGetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds under the race detector")
	}
	for _, l := range linkLayouts {
		t.Run(l.name, func(t *testing.T) {
			s := startPairOn(t, l, Config{})
			if want := map[bool]string{false: l.net.Name(), true: "unix"}[l.unix]; s.localNet.Name() != want {
				t.Fatalf("local link on %s, want %s", s.localNet.Name(), want)
			}
			conn, err := l.net.Dial(s.DataAddr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			codec := wire.BinaryCodec{}
			frame := func(req *wire.Request) []byte {
				var buf bytes.Buffer
				bw := bufio.NewWriter(&buf)
				if err := codec.WriteRequest(bw, req); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			var resp wire.Response
			call := func(f []byte) {
				if _, err := conn.Write(f); err != nil {
					t.Fatal(err)
				}
				if err := codec.ReadResponse(br, &resp); err != nil {
					t.Fatal(err)
				}
			}
			key, value := []byte("user000000000042"), bytes.Repeat([]byte("v"), 32)
			call(frame(&wire.Request{ID: 1, Op: wire.OpPut, Key: key, Value: value}))
			if resp.Status != wire.StatusOK {
				t.Fatalf("put: %+v", resp)
			}
			get := frame(&wire.Request{ID: 2, Op: wire.OpGet, Key: key})
			for i := 0; i < 64; i++ { // size every pooled buffer on the path
				call(get)
			}
			if resp.Status != wire.StatusOK || !bytes.Equal(resp.Value, value) {
				t.Fatalf("get: %+v", resp)
			}
			if got := testing.AllocsPerRun(2000, func() { call(get) }); got != 0 {
				t.Fatalf("routed GET over %s: %.0f allocs/op on the server side, want 0", l.name, got)
			}
		})
	}
}

// The binaries' form of the local link: "datalet": "unix:<path>" arrives as
// DataletAddr, with no TCP address for the datalet at all.
func TestDataletAddrUnixForm(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "d0")
	d, err := datalet.Serve(datalet.Config{
		Name: "d0", Network: transport.TCP{}, Addr: "127.0.0.1:0", LocalAddr: sock, Codec: wire.BinaryCodec{},
		NewEngine: func(string) (store.Engine, error) { return ht.New(), nil },
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l := linkLayout{net: transport.TCP{}, addr: "127.0.0.1:0"}
	s := startPairOn(t, l, Config{DataletAddr: transport.UnixAddr(sock)})
	if s.localNet.Name() != "unix" || s.localAddr != sock {
		t.Fatalf("local link = %s %q", s.localNet.Name(), s.localAddr)
	}
	var resp wire.Response
	s.dispatchAdmit(&wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v")}, &resp)
	if resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v", resp)
	}
	if e := d.Engine(""); e.Len() != 1 {
		t.Fatalf("write did not reach the datalet behind the socket file (len %d)", e.Len())
	}
}

// A controlet whose data listener (and control listener) returns transient
// Accept errors keeps serving both.
func TestAcceptLoopOutlivesTransientErrors(t *testing.T) {
	const fails = 3
	before := ctlAcceptErrs.Value()
	l := linkLayouts[0]
	s := startPairOn(t, l, Config{Network: faultnet.FailAccepts(l.net, fails)})
	c, err := datalet.Dial(l.net, s.DataAddr(), wire.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetCallTimeout(5 * time.Second)
	if err := c.Ping(); err != nil {
		t.Fatalf("data path deaf after %d accept errors: %v", fails, err)
	}
	if got := ctlAcceptErrs.Value() - before; got != fails {
		t.Fatalf("accept errors counted: %d, want %d", got, fails)
	}
}
