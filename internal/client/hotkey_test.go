package client

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

func TestHotTrackerThreshold(t *testing.T) {
	h := newHotTracker(5)
	k := []byte("popular")
	for i := 1; i <= 4; i++ {
		if h.touch(k) {
			t.Fatalf("hot after %d touches (threshold 5)", i)
		}
	}
	if !h.touch(k) {
		t.Fatal("not hot after 5 touches")
	}
	if !h.hot(k) {
		t.Fatal("hot() disagrees with touch()")
	}
	if h.hot([]byte("cold")) {
		t.Fatal("untouched key reported hot")
	}
}

func TestHotTrackerDecayBoundsTable(t *testing.T) {
	h := newHotTracker(3)
	hot := []byte("keeper")
	for i := 0; i < 100; i++ {
		h.touch(hot)
	}
	// Flood with distinct cold keys to force decay cycles.
	for i := 0; i < hotTableCap*3; i++ {
		h.touch([]byte(fmt.Sprintf("cold-%06d", i)))
	}
	size := h.counts.Len()
	if size > hotTableCap+1 {
		t.Fatalf("tracker grew to %d entries (cap %d)", size, hotTableCap)
	}
	if !h.hot(hot) {
		t.Fatal("genuinely hot key evicted by decay")
	}
}

func TestShadowKey(t *testing.T) {
	k := []byte("user42")
	sk := shadowKey(k)
	if bytes.Equal(k, sk) {
		t.Fatal("shadow key equals primary key")
	}
	if !isShadowKey(sk) {
		t.Fatal("shadow key not recognized")
	}
	if isShadowKey(k) {
		t.Fatal("primary key misrecognized as shadow")
	}
	if isShadowKey([]byte("x")) {
		t.Fatal("short key misrecognized")
	}
}

// TestHotKeyReadsUseShadow drives a hot key through a fake server and
// verifies: (1) the shadow copy gets written once the key crosses the
// threshold, (2) some eventual reads hit the shadow key, (3) strong reads
// never do, (4) delete removes the shadow.
func TestHotKeyReadsUseShadow(t *testing.T) {
	var mu sync.Mutex
	stored := map[string][]byte{}
	addr := fakeServer(t, func(req *wire.Request, resp *wire.Response) {
		mu.Lock()
		defer mu.Unlock()
		switch req.Op {
		case wire.OpPut:
			stored[string(req.Key)] = append([]byte(nil), req.Value...)
			resp.Status = wire.StatusOK
		case wire.OpGet:
			v, ok := stored[string(req.Key)]
			if !ok {
				resp.Status = wire.StatusNotFound
				return
			}
			resp.Status = wire.StatusOK
			resp.Value = append([]byte(nil), v...)
		case wire.OpDel:
			delete(stored, string(req.Key))
			resp.Status = wire.StatusOK
		}
	})
	net, _ := transport.Lookup("inproc")
	codec, _ := wire.LookupCodec("binary")
	c, err := New(Config{
		Network:         net,
		Codec:           codec,
		StaticMap:       staticMapTo(addr),
		HotKeyThreshold: 3,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	k := []byte("celebrity")
	for i := 0; i < 5; i++ { // crosses the threshold at the 3rd put
		if err := c.Put("", k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := stored[string(shadowKey(k))]; !ok {
		t.Fatal("shadow copy never written for hot key")
	}
	// Eventual reads keep working (shadow or primary, both hold "v").
	for i := 0; i < 20; i++ {
		v, ok, err := c.GetLevel("", k, wire.LevelEventual)
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("eventual read %d: (%q,%v,%v)", i, v, ok, err)
		}
	}
	// Delete removes primary and shadow.
	if _, err := c.Del("", k); err != nil {
		t.Fatal(err)
	}
	if _, ok := stored[string(k)]; ok {
		t.Fatal("primary survived delete")
	}
	if _, ok := stored[string(shadowKey(k))]; ok {
		t.Fatal("shadow survived delete")
	}
}
