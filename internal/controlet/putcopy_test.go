package controlet

import (
	"testing"

	"bespokv/internal/wire"
)

// TestPutCopyDetachesPairs: a pooled request filled by struct copy from a
// connection's scratch request must not carry that request's Pairs array
// into the pool. It did: after one MPut on a connection, every localCall on
// it pooled another alias of the connection's array, and the next cluster's
// batch writes were handed the same array twice — chain frames reached the
// tail with another batch's pairs or with cleared ones, and acked preloads
// were missing there.
func TestPutCopyDetachesPairs(t *testing.T) {
	scratch := &wire.Request{Op: wire.OpGet, Pairs: make([]wire.KV, 0, 8)}
	first := &scratch.Pairs[:1][0]
	for i := 0; i < 32; i++ {
		fwd := wire.GetRequest()
		*fwd = *scratch
		putCopy(fwd)
	}
	var held []*wire.Request
	for i := 0; i < 32; i++ {
		r := wire.GetRequest()
		held = append(held, r)
		if cap(r.Pairs) > 0 && &r.Pairs[:1][0] == first {
			t.Fatal("pooled request aliases a live connection's Pairs array")
		}
	}
	for _, r := range held {
		wire.PutRequest(r)
	}
}
