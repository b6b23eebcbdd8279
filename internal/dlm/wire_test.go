package dlm

import (
	"bytes"
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
		_, _ = parseLockTable(raw) // a checkpoint from disk or a peer never panics
		if op, delta, ttl, mode, key, owner, err := parseCmd(raw); err == nil {
			l := lockCall{key: key, owner: owner, mode: mode, ttl: ttl}
			op2, delta2, ttl2, mode2, key2, owner2, err := parseCmd(appendCmd(nil, op, delta, &l))
			if err != nil || op2 != op || delta2 != delta || ttl2 != ttl || mode2 != mode ||
				!bytes.Equal(key2, key) || !bytes.Equal(owner2, owner) {
				t.Fatalf("command round trip of %x: %v", raw, err)
			}
		}
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

// TestLockTableCheckpoint: the lease table comes back from its checkpoint
// whole — clock, token counter, writers, readers — and a checkpoint that
// claims more records or readers than its bytes could hold is refused.
func TestLockTableCheckpoint(t *testing.T) {
	tbl := newLockTable()
	tbl.advance(1000)
	tbl.tryGrant([]byte("w"), "a", Write, 50)
	tbl.tryGrant([]byte("r"), "a", Read, 70)
	tbl.tryGrant([]byte("r"), "b", Read, 90)
	got, err := parseLockTable(tbl.appendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Clock != tbl.Clock || got.NextToken != tbl.NextToken || len(got.Locks) != 2 {
		t.Fatalf("restored %+v from %+v", got, tbl)
	}
	for key, st := range tbl.Locks {
		if r := got.Locks[key]; r == nil || r.key != key || r.Writer != st.Writer || r.WriterExp != st.WriterExp ||
			r.Token != st.Token || !reflect.DeepEqual(r.Readers, st.Readers) {
			t.Fatalf("record %q restored as %+v, was %+v", key, r, st)
		}
	}
	for name, ck := range map[string][]byte{
		"4G records": {0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"4G readers": {0, 0, 1, 1, 'k', 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"truncated":  tbl.appendWire(nil)[:9],
	} {
		if _, err := parseLockTable(ck); err == nil {
			t.Errorf("checkpoint with %s accepted", name)
		}
	}
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

// lockUnlock is what one AA+SC operation pays the lock manager: an
// uncontended exclusive Lock, one rpc round trip served on the connection's
// reader, and its Unlock, a one-way frame the caller does not wait for —
// the release is pipelined behind the next Lock.
func lockUnlock(c *Client, key string, mode Mode) error {
	if _, err := c.Lock(key, mode, time.Second, time.Second); err != nil {
		return err
	}
	return c.Unlock(key, mode)
}

// TestLockUnlockAllocs gates the allocations of that pair through a real
// lock server, a group of one, client and server together. 5 measured: the
// client's LockArgs, LockReply and UnlockArgs escaping into `any`, the
// server's boxed LockReply (its state machine's grant), and the lease
// table's own copy of the key. The server parses in place, builds its log
// command in the call's reply buffer (which the group of one reads in
// place), interns the owner and recycles lease records, so neither a longer
// key nor a shared lease costs more.
func TestLockUnlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under -race")
	}
	_, dial := newDLM(t, Config{})
	c := dial("s0-r1")
	key := "usertable\x00" + strings.Repeat("k", 64) // past any small-string buffer
	for _, mode := range []Mode{Write, Read} {
		pair := func() {
			if err := lockUnlock(c, key, mode); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			pair() // fill the pools
		}
		const limit = 5
		if got := testing.AllocsPerRun(2000, pair); got > limit {
			t.Fatalf("%s lock + unlock: %.1f allocs, limit %d", mode, got, limit)
		}
	}
}

// BenchmarkLockUnlock is the pipelined-release round of lockUnlock. Run
// with -cpu 1,2; parallel callers share one connection and lock distinct
// keys.
func BenchmarkLockUnlock(b *testing.B) {
	c := benchDLM(b)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("user%012d", next.Add(1))
		for pb.Next() {
			if err := lockUnlock(c, key, Write); err != nil {
				b.Fatal(err)
			}
		}
	})
}
