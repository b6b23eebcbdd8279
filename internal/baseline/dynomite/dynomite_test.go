package dynomite

import (
	"fmt"
	"testing"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/store"
	"bespokv/internal/store/ht"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// ring deploys n dynomite nodes, each with its own backend datalet, fully
// peered.
func ring(t *testing.T, n int) (transport.Network, wire.Codec, []*Server, []*datalet.Server) {
	t.Helper()
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	var proxies []*Server
	var backends []*datalet.Server
	for i := 0; i < n; i++ {
		d, err := datalet.Serve(datalet.Config{
			Name:      fmt.Sprintf("dyn-backend-%d", i),
			Network:   net,
			Codec:     codec,
			NewEngine: func(string) (store.Engine, error) { return ht.New(), nil },
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		backends = append(backends, d)
		p, err := Serve(Config{Network: net, Codec: codec, BackendAddr: d.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		proxies = append(proxies, p)
	}
	for i, p := range proxies {
		var peers []string
		for j, q := range proxies {
			if j != i {
				peers = append(peers, q.Addr())
			}
		}
		p.SetPeers(peers)
	}
	return net, codec, proxies, backends
}

func TestWriteAnywhereReplicatesEverywhere(t *testing.T) {
	net, codec, proxies, backends := ring(t, 3)
	cli, err := datalet.Dial(net, proxies[1].Addr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var resp wire.Response
	if err := cli.Do(&wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v")}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v", resp)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		all := true
		for _, b := range backends {
			if _, _, ok, _ := b.Engine("").AppendGet(nil, []byte("k")); !ok {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write never replicated to all backends")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Reads serve from the local backend of whichever proxy is asked.
	cli2, err := datalet.Dial(net, proxies[2].Addr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if err := cli2.Do(&wire.Request{Op: wire.OpGet, Key: []byte("k")}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK || string(resp.Value) != "v" {
		t.Fatalf("get from peer: %+v", resp)
	}
}

func TestDeleteReplicates(t *testing.T) {
	net, codec, proxies, backends := ring(t, 3)
	cli, err := datalet.Dial(net, proxies[0].Addr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var resp wire.Response
	cli.Do(&wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v")}, &resp)
	time.Sleep(100 * time.Millisecond)
	cli.Do(&wire.Request{Op: wire.OpDel, Key: []byte("k")}, &resp)
	deadline := time.Now().Add(5 * time.Second)
	for {
		gone := true
		for _, b := range backends {
			if _, _, ok, _ := b.Engine("").AppendGet(nil, []byte("k")); ok {
				gone = false
			}
		}
		if gone {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("delete never replicated")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConflictWindowExists documents the divergence bespokv's shared log
// fixes: when two proxies accept conflicting writes to the same key
// concurrently, Dynomite-style peer propagation (no global order, local
// versioning) can leave replicas permanently disagreeing. The test demands
// divergence at least once across many attempts — if this ever becomes
// impossible, the baseline has silently gained ordering and no longer
// models Dynomite.
func TestConflictWindowExists(t *testing.T) {
	net, codec, proxies, backends := ring(t, 2)
	cli0, _ := datalet.Dial(net, proxies[0].Addr(), codec)
	defer cli0.Close()
	cli1, _ := datalet.Dial(net, proxies[1].Addr(), codec)
	defer cli1.Close()

	diverged := false
	for attempt := 0; attempt < 200 && !diverged; attempt++ {
		key := []byte(fmt.Sprintf("conflict-%03d", attempt))
		done := make(chan struct{}, 2)
		go func() {
			var r wire.Response
			cli0.Do(&wire.Request{Op: wire.OpPut, Key: key, Value: []byte("from-0")}, &r)
			done <- struct{}{}
		}()
		go func() {
			var r wire.Response
			cli1.Do(&wire.Request{Op: wire.OpPut, Key: key, Value: []byte("from-1")}, &r)
			done <- struct{}{}
		}()
		<-done
		<-done
		time.Sleep(30 * time.Millisecond) // let propagation settle
		v0, _, ok0, _ := backends[0].Engine("").AppendGet(nil, key)
		v1, _, ok1, _ := backends[1].Engine("").AppendGet(nil, key)
		if ok0 && ok1 && string(v0) != string(v1) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("dynomite baseline never diverged under conflicting writes; it must model the missing global order")
	}
}
