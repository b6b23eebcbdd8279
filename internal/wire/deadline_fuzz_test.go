package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"bespokv/internal/clock"
)

// legacyDecodeRequest reproduces the pre-deadline binary request decoder:
// base fields, optional TraceID, optional pair set — and, critically,
// nothing after that. The frame is length-delimited, so a real old peer
// discards the unread tail; this stand-in asserts the same frames parse.
func legacyDecodeRequest(frame []byte) (Request, error) {
	var req Request
	if len(frame) < 4 {
		return req, fmt.Errorf("short frame")
	}
	n := binary.LittleEndian.Uint32(frame[:4])
	if int(n) != len(frame)-4 {
		return req, fmt.Errorf("length mismatch")
	}
	f := frameReader{buf: frame[4:]}
	var err error
	if req.ID, err = f.uvarint(); err != nil {
		return req, err
	}
	op, err := f.uvarint()
	if err != nil {
		return req, err
	}
	req.Op = Op(op)
	if req.Table, err = f.string(); err != nil {
		return req, err
	}
	if req.Key, err = f.bytes(nil); err != nil {
		return req, err
	}
	if req.Value, err = f.bytes(nil); err != nil {
		return req, err
	}
	if req.EndKey, err = f.bytes(nil); err != nil {
		return req, err
	}
	limit, err := f.uvarint()
	if err != nil {
		return req, err
	}
	req.Limit = uint32(limit)
	if req.Version, err = f.uvarint(); err != nil {
		return req, err
	}
	lvl, err := f.uvarint()
	if err != nil {
		return req, err
	}
	req.Level = Level(lvl)
	if req.Epoch, err = f.uvarint(); err != nil {
		return req, err
	}
	if f.pos < len(f.buf) {
		if req.TraceID, err = f.uvarint(); err != nil {
			return req, err
		}
	}
	if f.pos < len(f.buf) {
		np, err := f.uvarint()
		if err != nil {
			return req, err
		}
		if np > uint64(len(f.buf)) {
			return req, fmt.Errorf("pair count %d exceeds frame", np)
		}
		req.Pairs = make([]KV, np)
		for i := range req.Pairs {
			if req.Pairs[i].Key, err = f.bytes(nil); err != nil {
				return req, err
			}
			if req.Pairs[i].Value, err = f.bytes(nil); err != nil {
				return req, err
			}
			if req.Pairs[i].Version, err = f.uvarint(); err != nil {
				return req, err
			}
		}
	}
	// An old decoder stops here; the frame delimiter swallows anything
	// later (the Deadline field, or fields added after it).
	return req, nil
}

// FuzzDeadlineHeader exercises the optional trailing deadline field in
// every compatibility direction, through both codecs:
//
//   - new encoder → new decoder: the budget survives, alongside TraceID
//     and the pair set (field-order interactions included);
//   - legacy (pre-deadline) frames → new decoder: absent field reads 0;
//   - new frames → legacy (pre-deadline) decoder: a peer without the
//     field still parses the frame, losing only the deadline;
//   - truncation at every byte boundary errors or yields a valid prefix.
func FuzzDeadlineHeader(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(50_000_000), []byte("k"), []byte("v"), false)
	f.Add(uint64(2), uint64(0xdeadbeef), uint64(1), []byte(""), []byte(nil), true)
	f.Add(uint64(3), uint64(7), uint64(1)<<63, []byte("key"), []byte("val"), true)
	f.Add(uint64(4), uint64(0), uint64(0), []byte("x"), []byte("y"), false)

	f.Fuzz(func(t *testing.T, id, tid, deadline uint64, key, value []byte, withPairs bool) {
		req := Request{ID: id, Op: OpPut, Table: "t", Key: key, Value: value, TraceID: tid, Deadline: deadline}
		if withPairs {
			req.Op = OpMPut
			req.Pairs = []KV{{Key: key, Value: value, Version: 9}}
		}

		for _, name := range Codecs() {
			codec, err := LookupCodec(name)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if err := codec.WriteRequest(bw, &req); err != nil {
				t.Fatalf("%s encode: %v", name, err)
			}
			frame := append([]byte(nil), buf.Bytes()...)

			// New → new: deadline, trace and pairs all survive.
			var got Request
			got.Deadline = 0xfeed // stale value must be overwritten
			if err := codec.ReadRequest(bufio.NewReader(bytes.NewReader(frame)), &got); err != nil {
				t.Fatalf("%s decode: %v", name, err)
			}
			if got.Deadline != deadline {
				t.Fatalf("%s Deadline %d -> %d", name, deadline, got.Deadline)
			}
			if got.TraceID != tid {
				t.Fatalf("%s TraceID %x -> %x", name, tid, got.TraceID)
			}
			if name == "binary" && got.ID != req.ID {
				t.Fatalf("%s ID %d -> %d", name, req.ID, got.ID)
			}
			if len(got.Pairs) != len(req.Pairs) {
				t.Fatalf("%s pair count %d, want %d", name, len(got.Pairs), len(req.Pairs))
			}

			// Truncation must error or decode to a valid full prefix,
			// never to a frame with a corrupted deadline.
			for cut := 1; cut < len(frame); cut++ {
				var part Request
				if err := codec.ReadRequest(bufio.NewReader(bytes.NewReader(frame[:cut])), &part); err == nil {
					if part.Deadline != 0 && part.Deadline != deadline {
						t.Fatalf("%s truncated frame (%d of %d bytes) invented deadline %d", name, cut, len(frame), part.Deadline)
					}
				}
			}
		}

		// Legacy encoder → new decoder: frames without the field decode
		// with Deadline 0 and every other field intact.
		legacy := legacyEncodeRequest(&Request{ID: id, Op: OpPut, Table: "t", Key: key, Value: value})
		var old Request
		old.Deadline = 0xfeed
		old.DeadlineAt = 42
		if err := (BinaryCodec{}).ReadRequest(bufio.NewReader(bytes.NewReader(legacy)), &old); err != nil {
			t.Fatalf("legacy decode: %v", err)
		}
		if old.Deadline != 0 || old.DeadlineAt != 0 {
			t.Fatalf("legacy frame decoded Deadline %d / DeadlineAt %d, want 0", old.Deadline, old.DeadlineAt)
		}
		if old.ID != id || string(old.Key) != string(key) || string(old.Value) != string(value) {
			t.Fatalf("legacy field mismatch: %+v", old)
		}

		// New encoder → legacy decoder: a pre-deadline peer parses the
		// frame (frame delimiting swallows the trailing field) and sees
		// every pre-deadline field unchanged.
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := (BinaryCodec{}).WriteRequest(bw, &req); err != nil {
			t.Fatalf("encode for legacy peer: %v", err)
		}
		oldPeer, err := legacyDecodeRequest(buf.Bytes())
		if err != nil {
			t.Fatalf("legacy peer failed to parse new frame: %v", err)
		}
		if oldPeer.ID != id || oldPeer.TraceID != tid ||
			string(oldPeer.Key) != string(key) || string(oldPeer.Value) != string(value) ||
			len(oldPeer.Pairs) != len(req.Pairs) {
			t.Fatalf("legacy peer mis-parsed new frame: %+v vs %+v", req, oldPeer)
		}
	})
}

// TestDeadlineArmRestamp covers the hop-local deadline arithmetic: arming
// converts the relative budget to an absolute instant, expiry trips once
// that instant passes, and re-stamping hands the *shrunken* remainder to
// the next hop (or refuses when the budget is spent).
func TestDeadlineArmRestamp(t *testing.T) {
	now := int64(1000 * time.Second)
	at := func(d time.Duration) func() int64 {
		return func() int64 { return now + int64(d) }
	}
	// A request without a deadline must not cost a clock reading.
	unread := func() int64 {
		t.Fatal("clock read for a request that carries no deadline")
		return 0
	}
	req := Request{Deadline: uint64(80 * time.Millisecond)}
	req.ArmDeadline(at(0))
	if req.DeadlineAt != now+int64(80*time.Millisecond) {
		t.Fatalf("armed DeadlineAt %d", req.DeadlineAt)
	}
	if req.DeadlineExpired(at(79 * time.Millisecond)) {
		t.Fatal("expired before the budget was spent")
	}
	if !req.DeadlineExpired(at(80 * time.Millisecond)) {
		t.Fatal("not expired after the budget was spent")
	}
	if !req.RestampDeadline(at(30 * time.Millisecond)) {
		t.Fatal("restamp refused with budget remaining")
	}
	if req.Deadline != uint64(50*time.Millisecond) {
		t.Fatalf("restamped Deadline %v, want 50ms", time.Duration(req.Deadline))
	}
	if req.RestampDeadline(at(81 * time.Millisecond)) {
		t.Fatal("restamp allowed with budget spent")
	}

	// Copy semantics: forwarding paths copy requests by value; the armed
	// absolute form must ride along.
	fwd := req
	if fwd.DeadlineAt != req.DeadlineAt {
		t.Fatal("DeadlineAt lost in struct copy")
	}

	// Zero deadline clears any stale armed instant and never expires.
	var none Request
	none.DeadlineAt = 7
	none.ArmDeadline(unread)
	if none.DeadlineAt != 0 || none.DeadlineExpired(unread) {
		t.Fatal("zero deadline must clear and never expire")
	}
	if !none.RestampDeadline(unread) {
		t.Fatal("zero deadline must restamp freely")
	}

	// Absurd budgets (fuzz input) must clamp, not overflow.
	huge := Request{Deadline: ^uint64(0)}
	huge.ArmDeadline(clock.Mono)
	if huge.DeadlineAt <= 0 {
		t.Fatalf("overflowed DeadlineAt %d", huge.DeadlineAt)
	}
}
