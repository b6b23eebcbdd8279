package controlet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/store"
	"bespokv/internal/store/ht"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// slowPutEngine stretches every Put to a fixed service time so a tiny
// inflight cap saturates under a handful of concurrent writers.
type slowPutEngine struct {
	store.Engine
	delay time.Duration
}

func (s slowPutEngine) Put(key, value []byte, version uint64) (uint64, error) {
	time.Sleep(s.delay)
	return s.Engine.Put(key, value, version)
}

// TestControletShedsUnderOverload saturates a MaxInflight=1 controlet
// fronting a slow datalet: part of the write storm must be shed with the
// retryable StatusOverloaded at the entry edge, admitted work must still
// land, and control-lane ops must bypass the saturated gate entirely.
func TestControletShedsUnderOverload(t *testing.T) {
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	d, err := datalet.Serve(datalet.Config{
		Name:    "shed-datalet",
		Network: net,
		Codec:   codec,
		NewEngine: func(string) (store.Engine, error) {
			return slowPutEngine{Engine: ht.New(), delay: 5 * time.Millisecond}, nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	s, err := Serve(Config{
		NodeID:       "shed-node",
		ShardID:      "shed-shard",
		Network:      net,
		Codec:        codec,
		DataletAddr:  d.Addr(),
		DataletCodec: codec,
		Mode:         topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		// One slot against a 5ms datalet put, 4ms max queue wait: any op
		// queueing behind another is shed at the controlet's front door.
		MaxInflight: 1,
		ShedTarget:  time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	var acked, shed, other atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		cli, err := datalet.Dial(net, s.DataAddr(), codec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, cli *datalet.Client) {
			defer wg.Done()
			defer cli.Close()
			for i := 0; i < 30; i++ {
				var resp wire.Response
				req := wire.Request{
					Op:    wire.OpPut,
					Key:   []byte(fmt.Sprintf("k-%d-%d", w, i)),
					Value: []byte("v"),
				}
				if err := cli.Do(&req, &resp); err != nil {
					other.Add(1)
					continue
				}
				switch resp.Status {
				case wire.StatusOK:
					acked.Add(1)
				case wire.StatusOverloaded:
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}(w, cli)
	}

	// Control-lane traffic must never wait behind the data storm.
	ctl, err := datalet.Dial(net, s.DataAddr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	for i := 0; i < 20; i++ {
		var resp wire.Response
		if err := ctl.Do(&wire.Request{Op: wire.OpNop}, &resp); err != nil {
			t.Fatalf("nop %d during overload: %v", i, err)
		}
		if resp.Status == wire.StatusOverloaded {
			t.Fatalf("nop %d shed: control lane must bypass the gate", i)
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()

	t.Logf("storm: %d acked, %d shed, %d other", acked.Load(), shed.Load(), other.Load())
	if acked.Load() == 0 {
		t.Fatal("an overloaded controlet must still complete admitted work")
	}
	if shed.Load() == 0 {
		t.Fatal("six writers against one 5ms slot must trip the shedder")
	}
	if other.Load() != 0 {
		t.Fatalf("%d ops failed with something other than OK/Overloaded", other.Load())
	}
}

// TestControletDropsExpiredDeadline: a data op whose propagated budget is
// already spent on arrival is dropped at the front door with
// StatusOverloaded; a roomy budget is honored end to end.
func TestControletDropsExpiredDeadline(t *testing.T) {
	s, _ := startControlet(t, topology.Mode{Topology: topology.MS, Consistency: topology.Strong})
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	cli, err := datalet.Dial(net, s.DataAddr(), codec)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	before := s.admit.Expired.Value()
	var resp wire.Response
	req := wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v"), Deadline: 1}
	if err := cli.Do(&req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOverloaded {
		t.Fatalf("expired-deadline put: status %v, want Overloaded", resp.Status)
	}
	if s.admit.Expired.Value() <= before {
		t.Fatal("deadline_expired counter did not move")
	}
	resp.Reset()
	req = wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v"), Deadline: uint64(time.Minute)}
	if err := cli.Do(&req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("roomy-deadline put: %+v", resp)
	}
}

// TestWriteAllBatchNeverShed: with the client-traffic cap taken, an
// OpReplMPut — internal traffic, the rest of a write its owner admitted —
// is still applied, while a client MultiPut is shed.
func TestWriteAllBatchNeverShed(t *testing.T) {
	s := startShardOpts(t, topology.Mode{Topology: topology.AA, Consistency: topology.Strong}, 1,
		shardOpts{maxInflight: 1}).ctls[0]
	hold, ok := s.admit.Gate.Admit() // the one slot: every gated op from here on waits
	if !ok {
		t.Fatal("first admit")
	}
	defer hold()
	var resp wire.Response
	s.dispatchAdmit(&wire.Request{Op: wire.OpReplMPut, Epoch: 5, Pairs: []wire.KV{
		{Key: []byte("a"), Value: []byte("v"), Version: 7}, {Key: []byte("b"), Value: []byte("v"), Version: 7},
	}}, &resp)
	if resp.Status != wire.StatusOK || len(resp.Statuses) != 2 {
		t.Fatalf("write-all batch under the cap: %s %s %v", resp.Status, resp.Err, resp.Statuses)
	}
	resp.Reset()
	s.dispatchAdmit(mputOf("c", 2), &resp)
	if resp.Status != wire.StatusOverloaded {
		t.Fatalf("client batch under the cap: %s, want Overloaded", resp.Status)
	}
}
