package dlm

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/rpc"
	"bespokv/internal/transport"
)

var (
	_ rpc.Wire = (*LockArgs)(nil)
	_ rpc.Wire = (*LockReply)(nil)
	_ rpc.Wire = (*UnlockArgs)(nil)
)

// roundTrip encodes m, decodes into fresh (pre-dirtied, so ParseWire must
// overwrite every field) and compares; the encoding plus a trailing byte
// and every strict prefix of it must be rejected or decode cleanly, never
// panic.
func roundTrip(t *testing.T, m, fresh rpc.Wire) {
	t.Helper()
	enc := m.AppendWire(nil)
	if err := fresh.ParseWire(enc); err != nil {
		t.Fatalf("%T: decode of own encoding: %v", m, err)
	}
	if !reflect.DeepEqual(m, fresh) {
		t.Fatalf("%T round trip: %+v -> %+v", m, m, fresh)
	}
	if err := fresh.ParseWire(append(enc[:len(enc):len(enc)], 0)); err == nil {
		t.Fatalf("%T: trailing byte accepted", m)
	}
	for i := range enc {
		_ = fresh.ParseWire(enc[:i])
	}
}

// FuzzWireMessages: every dlm rpc.Wire message survives a round trip, and
// arbitrary bytes never panic a decoder.
func FuzzWireMessages(f *testing.F) {
	f.Add("user0000000042", "s0-r1", "w", 5000, 1000, uint64(77), []byte{2, 'k', '1'})
	f.Add("", "", "", 0, 0, uint64(0), []byte{})
	f.Add("k", "o", "exclusive", -1, -7, ^uint64(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, key, owner, mode string, ttl, wait int, token uint64, raw []byte) {
		roundTrip(t, &LockArgs{Key: key, Owner: owner, Mode: Mode(mode), TTLMs: ttl, WaitMs: wait}, &LockArgs{Key: "x", TTLMs: 1})
		roundTrip(t, &UnlockArgs{Key: key, Owner: owner, Mode: Mode(mode)}, &UnlockArgs{Owner: "x"})
		roundTrip(t, &LockReply{Token: token}, &LockReply{Token: 1})
		for _, m := range []rpc.Wire{&LockArgs{}, &LockReply{}, &UnlockArgs{}} {
			if err := m.ParseWire(raw); err == nil {
				// Whatever decodes cleanly re-encodes to a decodable form.
				if err := m.ParseWire(m.AppendWire(nil)); err != nil {
					t.Fatalf("%T: re-encoding of accepted bytes rejected: %v", m, err)
				}
			}
		}
	})
}

// TestErrorTextCrossesVerbatim: clients match on these strings, so the
// binary envelope must deliver them unchanged.
func TestErrorTextCrossesVerbatim(t *testing.T) {
	_, dial := newDLM(t, Config{})
	a, b := dial("a"), dial("b")
	if _, err := a.Lock("k", Write, time.Second, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Lock("k", Write, time.Second, 0); err == nil || err.Error() != ErrLockHeld {
		t.Fatalf("contended lock: %v, want exactly %q", err, ErrLockHeld)
	}
	if _, err := b.Lock("k", Mode("x"), time.Second, 0); err == nil || !strings.Contains(err.Error(), `bad mode "x"`) {
		t.Fatalf("bad mode: %v", err)
	}
}

func benchDLM(b *testing.B) *Client {
	b.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		b.Fatal(err)
	}
	s, err := Serve(Config{Network: net})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	c, err := DialClient(net, s.Addr(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkLockUnlock is what one AA+SC write pays the lock manager: an
// uncontended exclusive Lock and its Unlock, two rpc round trips. Run with
// -cpu 1,2; parallel callers share one connection and lock distinct keys.
func BenchmarkLockUnlock(b *testing.B) {
	c := benchDLM(b)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("user%012d", next.Add(1))
		for pb.Next() {
			if _, err := c.Lock(key, Write, time.Second, time.Second); err != nil {
				b.Fatal(err)
			}
			if err := c.Unlock(key, Write); err != nil {
				b.Fatal(err)
			}
		}
	})
}
