package controlet

import (
	"fmt"
	"testing"

	"bespokv/internal/wire"
)

// BenchmarkDispatch is the controlet-dispatch layer benchmark: one request
// through admission, routing and the mode's write or read path of a
// 1-replica shard, the local datalet one in-process hop away. No client
// library and no peer hop, so what differs between modes is the mode's own
// cost (slot exclusion, shared-log append) on top of the shared
// stages. Run with -benchmem: the single-key cells are allocation gates.
func BenchmarkDispatch(b *testing.B) {
	for _, mode := range fourModes {
		sh := startShard(b, mode, 1)
		s := sh.ctls[0]
		value := make([]byte, 32)
		key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i%4096)) }
		var resp wire.Response
		run := func(name string, req *wire.Request, next func(i int)) {
			b.Run(mode.String()+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					next(i)
					resp.Reset()
					s.dispatchAdmit(req, &resp)
					if resp.Status != wire.StatusOK {
						b.Fatalf("%s: %+v", name, resp)
					}
				}
			})
		}
		keys := make([][]byte, 4096)
		for i := range keys {
			keys[i] = key(i)
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
}
