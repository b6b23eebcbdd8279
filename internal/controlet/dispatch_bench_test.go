package controlet

import (
	"fmt"
	"testing"

	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// BenchmarkDispatch is the controlet-dispatch layer benchmark: one request
// through admission, routing and the mode's write or read path of a
// 1-replica shard, the local datalet one in-process hop away. No client
// library and no peer hop, so what differs between modes is the mode's own
// cost (slot authority, shared-log append) on top of the shared
// stages. Run with -benchmem: the single-key cells are allocation gates.
//
// The put-r3 cells are the write hop: a put at the head (MS+SC) or at the
// key's slot owner (AA+SC) of a 3-replica shard, whose replication is two
// chained peer frames or two concurrent write-all frames. The mput16-r3
// cell is a 16-pair MultiPut at the master of a 3-replica MS+EC shard; its
// propagation runs behind the ack, so the cell waits for it to drain
// before the clock stops.
func BenchmarkDispatch(b *testing.B) {
	value := make([]byte, 32)
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	var resp wire.Response
	cell := func(s *Server, name string, req *wire.Request, next func(i int)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				next(i)
				resp.Reset()
				s.dispatchAdmit(req, &resp)
				if resp.Status != wire.StatusOK {
					b.Fatalf("%s: %+v", name, resp)
				}
			}
			if s.prop != nil {
				s.prop.drain()
			}
		})
	}
	for _, mode := range fourModes {
		s := startShard(b, mode, 1).ctls[0]
		run := func(name string, req *wire.Request, next func(i int)) {
			cell(s, mode.String()+"/"+name, req, next)
		}
		put := &wire.Request{Op: wire.OpPut, Value: value}
		for _, k := range keys { // every get finds its key at any -benchtime
			put.Key = k
			resp.Reset()
			if s.dispatchAdmit(put, &resp); resp.Status != wire.StatusOK {
				b.Fatalf("preload: %+v", resp)
			}
		}
		run("put", put, func(i int) { put.Key = keys[i%len(keys)] })
		get := &wire.Request{Op: wire.OpGet}
		run("get", get, func(i int) { get.Key = keys[i%len(keys)] })
		mput := &wire.Request{Op: wire.OpMPut, Pairs: make([]wire.KV, 16)}
		run("mput16", mput, func(i int) {
			for j := range mput.Pairs {
				mput.Pairs[j] = wire.KV{Key: keys[(i*16+j)%len(keys)], Value: value}
			}
		})
	}
	for _, mode := range []topology.Mode{fourModes[0], fourModes[2]} {
		sh := startShard(b, mode, 3)
		shard := sh.m.Shards[0]
		var owned [][]byte // keys of n0's slots: an AA+SC non-owner would relay
		for _, k := range keys {
			if shard.SlotOwner(topology.SlotOf(k)).ID == "n0" {
				owned = append(owned, k)
			}
		}
		put := &wire.Request{Op: wire.OpPut, Value: value}
		cell(sh.ctls[0], mode.String()+"/put-r3", put, func(i int) { put.Key = owned[i%len(owned)] })
	}
	mput := &wire.Request{Op: wire.OpMPut, Pairs: make([]wire.KV, 16)}
	cell(startShard(b, fourModes[1], 3).ctls[0], fourModes[1].String()+"/mput16-r3", mput, func(i int) {
		for j := range mput.Pairs {
			mput.Pairs[j] = wire.KV{Key: keys[(i*16+j)%len(keys)], Value: value}
		}
	})
}
