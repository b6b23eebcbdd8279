package cluster

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"bespokv/internal/client"
	"bespokv/internal/topology"
)

// TestClusterOverTCP deploys a full cluster over loopback sockets — the
// multi-process-shaped path the cmd/ binaries use.
func TestClusterOverTCP(t *testing.T) {
	c := startCluster(t, Options{
		NetworkName:     "tcp",
		Shards:          2,
		Replicas:        3,
		Mode:            topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		DisableFailover: true,
	})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 30; i++ {
		k := []byte(fmt.Sprintf("tcp-key-%03d", i))
		if err := cli.Put("", k, k); err != nil {
			t.Fatal(err)
		}
		v, ok, err := cli.Get("", k)
		if err != nil || !ok || string(v) != string(k) {
			t.Fatalf("get over tcp: (%q,%v,%v)", v, ok, err)
		}
	}
	// Every endpoint is a real socket address.
	for _, pairs := range c.Shards {
		for _, p := range pairs {
			if !strings.Contains(p.Node.ControletAddr, ":") || !strings.Contains(p.Node.DataletAddr, ":") {
				t.Fatalf("non-tcp address in tcp cluster: %+v", p.Node)
			}
		}
	}
}

// localLinkOf reads, from a pair's controlet status, where it dials its
// own datalet.
func localLinkOf(p *Pair) any {
	return p.Controlet.Status().(map[string]any)["pools"].(map[string]any)["local_link"]
}

// TestClusterCollocatedDatalets verifies the paper-faithful layout a tcp
// cluster gets by default: controlets and the datalet addresses the map
// advertises are TCP sockets, each controlet reaches its own datalet over a
// unix-domain socket file, and everybody else — peer controlets (table DDL,
// anti-entropy), direct-read clients — still reaches a datalet over TCP.
// Nothing of the socket directory survives Close.
func TestClusterCollocatedDatalets(t *testing.T) {
	c := startCluster(t, Options{
		NetworkName:     "tcp",
		Shards:          1,
		Replicas:        3,
		Mode:            topology.Mode{Topology: topology.MS, Consistency: topology.Eventual},
		DisableFailover: true,
	})
	cli, err := c.ClientConfig(client.Config{DirectReads: true, DisableWatch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Put("", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, 0, 1)
	for _, p := range c.Shards[0] {
		if !strings.Contains(p.Node.ControletAddr, ":") || !strings.Contains(p.Node.DataletAddr, ":") {
			t.Fatalf("advertised addresses not on tcp: %+v", p.Node)
		}
		sock := p.Datalet.LocalAddr()
		if fi, err := os.Stat(sock); err != nil || fi.Mode()&os.ModeSocket == 0 {
			t.Fatalf("datalet %s: no socket file at %q: %v", p.Node.ID, sock, err)
		}
		if got, want := localLinkOf(p), "unix:"+sock; got != want {
			t.Fatalf("controlet %s local link = %v, want %v", p.Node.ID, got, want)
		}
	}

	// A direct read dials the map-advertised datalet address.
	direct0 := counterValue("bespokv_client_direct_reads_total")
	if v, ok, err := cli.Get("", []byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("direct read: %q %v %v", v, ok, err)
	}
	if d := counterValue("bespokv_client_direct_reads_total") - direct0; d != 1 {
		t.Fatalf("expected 1 direct read over tcp, counter moved by %d", d)
	}
	// Table DDL goes from the head's controlet to every peer datalet.
	if err := cli.CreateTable("t2"); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Shards[0] {
		if p.Datalet.Engine("t2") == nil {
			t.Fatalf("datalet %s never got the table", p.Node.ID)
		}
	}
	// Anti-entropy exports the local datalet over the socket file and
	// pushes to the peers' datalets over tcp.
	if pairs, _, err := c.Reconcile(0, 0); err != nil || pairs != 1 {
		t.Fatalf("reconcile: %d pairs, %v", pairs, err)
	}

	dir := c.sockDir
	c.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("socket directory %q survived Close: %v", dir, err)
	}
}
