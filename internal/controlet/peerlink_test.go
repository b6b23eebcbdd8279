package controlet

import (
	"fmt"
	"testing"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// A peer controlet that is stopped and started again on the same data
// address is reached again by the two paths that cross a controlet's peer
// links without a client-visible retry of their own — the MS+EC propagator
// (master → slave, after the ack) and a P2P relay (slave → master) — with
// no caller dropping a connection: the link to the address heals itself.
func TestPeerLinksSurvivePeerRestart(t *testing.T) {
	net, _ := transport.Lookup("inproc")
	mode := topology.Mode{Topology: topology.MS, Consistency: topology.Eventual}
	m := &topology.Map{
		Epoch:       5,
		Mode:        mode,
		Partitioner: topology.HashPartitioner,
		Shards:      []topology.Shard{{ID: "shard-0", Replicas: make([]topology.Node, 2)}},
	}
	ctls := make([]*Server, 2)
	datalets := make([]*datalet.Server, 2)
	// start serves replica i — on the data address it had before, if any —
	// and hands every controlet the map that lists it.
	start := func(i int) {
		t.Helper()
		s, err := Serve(Config{
			NodeID: fmt.Sprintf("n%d", i), ShardID: "shard-0", Mode: mode,
			Network: net, Codec: wire.BinaryCodec{},
			DataAddr:    m.Shards[0].Replicas[i].ControletAddr,
			DataletAddr: datalets[i].Addr(),
			P2PRouting:  true,
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		ctls[i] = s
		m.Shards[0].Replicas[i] = s.Node()
		for _, c := range ctls {
			if c != nil {
				c.SetMap(m)
			}
		}
	}
	for i := range ctls {
		datalets[i] = startDatalet(t, fmt.Sprintf("d%d", i), nil)
		start(i)
	}
	// put writes key through replica via, again if the controlet refuses
	// (a relay that found the peer's connections reset says Unavailable,
	// as it would to a client, which retries), and reports the tries.
	put := func(via int, key string) int {
		t.Helper()
		cli, err := datalet.Dial(net, ctls[via].DataAddr(), wire.BinaryCodec{})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		for try := 1; ; try++ {
			var resp wire.Response
			req := wire.Request{Op: wire.OpPut, Key: []byte(key), Value: []byte("v-" + key), Epoch: m.Epoch}
			if err := cli.Do(&req, &resp); err != nil {
				t.Fatalf("put %s via n%d: %v", key, via, err)
			}
			if resp.Status == wire.StatusOK {
				return try
			}
			if try == 5 {
				t.Fatalf("put %s via n%d: still %s %q after %d tries", key, via, resp.Status, resp.Err, try)
			}
			time.Sleep(transport.BackoffBase)
		}
	}
	onBoth := func(key string) {
		t.Helper()
		for i, d := range datalets {
			deadline := time.Now().Add(5 * time.Second)
			for {
				v, _, ok, err := d.Engine("").AppendGet(nil, []byte(key))
				if err != nil {
					t.Fatal(err)
				}
				if ok && string(v) == "v-"+key {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s never reached datalet %d", key, i)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	put(0, "propagated")
	put(1, "relayed")
	onBoth("propagated")
	onBoth("relayed")
	dropped := ctlPropDropped.Value()

	ctls[1].Close()
	start(1)
	put(0, "propagated-after-slave-restart")
	onBoth("propagated-after-slave-restart")

	// The restarted slave is a new controlet; give it connections to the
	// master to lose.
	put(1, "relayed-by-restarted-slave")
	ctls[0].Close()
	start(0)
	tries := put(1, "relayed-after-master-restart")
	onBoth("relayed-after-master-restart")
	if tries > 2 {
		t.Fatalf("relay needed %d tries to reach the restarted master, want one failure and one re-dial", tries)
	}

	if d := ctlPropDropped.Value() - dropped; d != 0 {
		t.Fatalf("the propagator gave up on %d record(s)", d)
	}
	// The master reaches its slave on its peer links, the slave relays to
	// its master on its relay links: one link each, healed.
	for i, links := range []*datalet.Links{ctls[0].peers, ctls[1].relays} {
		if st := links.Stats(); st.Links != 1 || st.Down != 0 {
			t.Fatalf("n%d links to its peer after the restarts: %+v", i, st)
		}
	}
}
