package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzBinaryReadRequest feeds arbitrary bytes to the binary request
// decoder: it must never panic, and anything it accepts must re-encode and
// re-decode to the same message (decode∘encode idempotence).
func FuzzBinaryReadRequest(f *testing.F) {
	var seedBuf bytes.Buffer
	w := bufio.NewWriter(&seedBuf)
	seed := Request{ID: 7, Op: OpPut, Table: "t", Key: []byte("k"), Value: []byte("v"), Epoch: 2}
	_ = BinaryCodec{}.WriteRequest(w, &seed)
	f.Add(seedBuf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := (BinaryCodec{}).ReadRequest(bufio.NewReader(bytes.NewReader(data)), &req); err != nil {
			return
		}
		var out bytes.Buffer
		bw := bufio.NewWriter(&out)
		if err := (BinaryCodec{}).WriteRequest(bw, &req); err != nil {
			t.Fatalf("accepted request failed to re-encode: %v", err)
		}
		var again Request
		if err := (BinaryCodec{}).ReadRequest(bufio.NewReader(&out), &again); err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		if again.Op != req.Op || string(again.Key) != string(req.Key) ||
			string(again.Value) != string(req.Value) || again.Version != req.Version {
			t.Fatalf("re-decode mismatch: %+v vs %+v", req, again)
		}
	})
}

// FuzzBinaryReadResponse is the response-side twin.
func FuzzBinaryReadResponse(f *testing.F) {
	var seedBuf bytes.Buffer
	w := bufio.NewWriter(&seedBuf)
	seed := Response{ID: 7, Status: StatusOK, Value: []byte("v"), Pairs: []KV{{Key: []byte("a"), Value: []byte("1")}}}
	_ = BinaryCodec{}.WriteResponse(w, &seed)
	f.Add(seedBuf.Bytes())
	f.Add([]byte{4, 0, 0, 0, 1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if err := (BinaryCodec{}).ReadResponse(bufio.NewReader(bytes.NewReader(data)), &resp); err != nil {
			return
		}
		var out bytes.Buffer
		bw := bufio.NewWriter(&out)
		if err := (BinaryCodec{}).WriteResponse(bw, &resp); err != nil {
			t.Fatalf("accepted response failed to re-encode: %v", err)
		}
	})
}

// FuzzTextReadRequest fuzzes the RESP-like parser.
func FuzzTextReadRequest(f *testing.F) {
	var seedBuf bytes.Buffer
	w := bufio.NewWriter(&seedBuf)
	seed := Request{Op: OpGet, Key: []byte("k")}
	_ = TextCodec{}.WriteRequest(w, &seed)
	f.Add(seedBuf.Bytes())
	f.Add([]byte("*9\r\n$3\r\nPUT\r\n"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte("$$$$\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := (TextCodec{}).ReadRequest(bufio.NewReader(bytes.NewReader(data)), &req); err != nil {
			return
		}
		var out bytes.Buffer
		bw := bufio.NewWriter(&out)
		if err := (TextCodec{}).WriteRequest(bw, &req); err != nil {
			t.Fatalf("accepted text request failed to re-encode: %v", err)
		}
		var again Request
		if err := (TextCodec{}).ReadRequest(bufio.NewReader(&out), &again); err != nil {
			t.Fatalf("re-encoded text request failed to decode: %v", err)
		}
	})
}

// legacyEncodeRequest reproduces the pre-trace binary request encoding
// (field stream without the optional trailing TraceID) so the compat fuzz
// below can feed the current decoder genuine old-format frames.
func legacyEncodeRequest(req *Request) []byte {
	var body []byte
	put := func(v uint64) {
		body = binary.AppendUvarint(body, v)
	}
	putBytes := func(b []byte) {
		put(uint64(len(b)))
		body = append(body, b...)
	}
	put(req.ID)
	put(uint64(req.Op))
	putBytes([]byte(req.Table))
	putBytes(req.Key)
	putBytes(req.Value)
	putBytes(req.EndKey)
	put(uint64(req.Limit))
	put(req.Version)
	put(uint64(req.Level))
	put(req.Epoch)
	frame := make([]byte, 4, 4+len(body))
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	return append(frame, body...)
}

// FuzzTraceHeader round-trips the optional trailing trace field in both
// directions: new-encoder frames must decode to the same TraceID, and
// legacy (pre-trace) frames must decode with TraceID 0 and all other
// fields intact — backward/forward wire compatibility.
func FuzzTraceHeader(f *testing.F) {
	f.Add(uint64(1), uint64(0xdeadbeef), uint8(OpPut), []byte("k"), []byte("v"), uint64(3))
	f.Add(uint64(2), uint64(0), uint8(OpGet), []byte("key"), []byte(nil), uint64(0))
	f.Add(uint64(0), uint64(1)<<63, uint8(OpChainPut), []byte(""), []byte("x"), uint64(9))

	f.Fuzz(func(t *testing.T, id, tid uint64, opByte uint8, key, value []byte, epoch uint64) {
		op := Op(opByte)
		if op > OpMax {
			op = OpPut
		}
		req := Request{ID: id, Op: op, Table: "t", Key: key, Value: value, Epoch: epoch, TraceID: tid}

		// New encoder → new decoder: TraceID survives.
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := (BinaryCodec{}).WriteRequest(bw, &req); err != nil {
			t.Fatalf("encode: %v", err)
		}
		var got Request
		if err := (BinaryCodec{}).ReadRequest(bufio.NewReader(&buf), &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.TraceID != tid {
			t.Fatalf("TraceID %x -> %x", tid, got.TraceID)
		}
		if got.ID != id || got.Op != op || string(got.Key) != string(key) ||
			string(got.Value) != string(value) || got.Epoch != epoch {
			t.Fatalf("field mismatch: %+v vs %+v", req, got)
		}

		// Legacy encoder → new decoder: absent field reads as 0, frames
		// must decode byte-for-byte like before the trace field existed.
		legacy := legacyEncodeRequest(&req)
		var old Request
		old.TraceID = 0xfeed // stale value must be overwritten
		if err := (BinaryCodec{}).ReadRequest(bufio.NewReader(bytes.NewReader(legacy)), &old); err != nil {
			t.Fatalf("legacy decode: %v", err)
		}
		if old.TraceID != 0 {
			t.Fatalf("legacy frame decoded TraceID %x, want 0", old.TraceID)
		}
		if old.ID != id || old.Op != op || string(old.Key) != string(key) ||
			string(old.Value) != string(value) || old.Epoch != epoch {
			t.Fatalf("legacy field mismatch: %+v vs %+v", req, old)
		}

		// New decoder output re-encoded must be stable (idempotence).
		var again bytes.Buffer
		bw2 := bufio.NewWriter(&again)
		if err := (BinaryCodec{}).WriteRequest(bw2, &got); err != nil {
			t.Fatalf("re-encode: %v", err)
		}

		// Text codec: optional tenth element round-trips too.
		var tbuf bytes.Buffer
		tw := bufio.NewWriter(&tbuf)
		treq := req
		if treq.Op == OpNop {
			treq.Op = OpPut
		}
		if err := (TextCodec{}).WriteRequest(tw, &treq); err != nil {
			t.Fatalf("text encode: %v", err)
		}
		var tgot Request
		if err := (TextCodec{}).ReadRequest(bufio.NewReader(&tbuf), &tgot); err != nil {
			t.Fatalf("text decode: %v", err)
		}
		if tgot.TraceID != tid {
			t.Fatalf("text TraceID %x -> %x", tid, tgot.TraceID)
		}
	})
}

// FuzzMultiOp round-trips the optional trailing Pairs/Statuses fields of
// the multi-op frames through both codecs: whatever pair set the encoder
// writes must decode identically, truncated frames must be rejected (never
// mis-decoded), and oversized pair counts must error instead of
// allocating. The op is any of the multi-put frames: the client's, the
// chain's and the write-all's.
func FuzzMultiOp(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte("k1"), []byte("v1"), []byte("k2"), []byte("v2"), uint64(7))
	f.Add(uint8(0), uint64(0), []byte(""), []byte(""), []byte("x"), []byte(nil), uint64(0))
	f.Add(uint8(0), uint64(9), []byte("a"), bytes.Repeat([]byte("b"), 300), []byte("c"), []byte("d"), uint64(1)<<62)
	f.Add(uint8(1), uint64(5), []byte("k1"), []byte("v1"), []byte("k2"), []byte("v2"), uint64(1)<<40)
	f.Add(uint8(2), uint64(5), []byte("k1"), []byte("v1"), []byte("k2"), []byte("v2"), uint64(1)<<40)
	f.Add(uint8(2), uint64(0), []byte(""), bytes.Repeat([]byte("r"), 300), []byte("y"), []byte(nil), uint64(0))

	multiPuts := []Op{OpMPut, OpChainMPut, OpReplMPut}
	f.Fuzz(func(t *testing.T, opSel uint8, epoch uint64, k1, v1, k2, v2 []byte, ver uint64) {
		op := multiPuts[int(opSel)%len(multiPuts)]
		req := Request{
			ID:    3,
			Op:    op,
			Table: "t",
			Epoch: epoch,
			Pairs: []KV{
				{Key: k1, Value: v1, Version: ver},
				{Key: k2, Value: v2},
			},
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

			var got Request
			if err := codec.ReadRequest(bufio.NewReader(bytes.NewReader(frame)), &got); err != nil {
				t.Fatalf("%s decode: %v", name, err)
			}
			if len(got.Pairs) != len(req.Pairs) {
				t.Fatalf("%s pair count %d, want %d", name, len(got.Pairs), len(req.Pairs))
			}
			for i := range req.Pairs {
				if string(got.Pairs[i].Key) != string(req.Pairs[i].Key) ||
					string(got.Pairs[i].Value) != string(req.Pairs[i].Value) ||
					got.Pairs[i].Version != req.Pairs[i].Version {
					t.Fatalf("%s pair %d mismatch: %+v vs %+v", name, i, req.Pairs[i], got.Pairs[i])
				}
			}
			if got.Epoch != epoch || got.Op != op {
				t.Fatalf("%s header mismatch: %+v", name, got)
			}

			// Truncation at every boundary must error, never mis-decode
			// into a shorter-but-valid pair set.
			for cut := 1; cut < len(frame); cut++ {
				var part Request
				if err := codec.ReadRequest(bufio.NewReader(bytes.NewReader(frame[:cut])), &part); err == nil {
					if len(part.Pairs) == len(req.Pairs) {
						ok := true
						for i := range req.Pairs {
							if string(part.Pairs[i].Key) != string(req.Pairs[i].Key) ||
								string(part.Pairs[i].Value) != string(req.Pairs[i].Value) {
								ok = false
							}
						}
						if ok {
							continue // a self-delimiting prefix that still decodes fully is fine
						}
					}
					t.Fatalf("%s accepted truncated frame (%d of %d bytes) as %+v", name, cut, len(frame), part)
				}
			}
		}

		// Response side: Statuses must ride along index-aligned.
		resp := Response{
			ID:     3,
			Status: StatusOK,
			Pairs: []KV{
				{Value: v1, Version: ver},
				{Value: v2},
			},
			Statuses: []Status{StatusOK, StatusNotFound},
		}
		for _, name := range Codecs() {
			codec, _ := LookupCodec(name)
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if err := codec.WriteResponse(bw, &resp); err != nil {
				t.Fatalf("%s encode response: %v", name, err)
			}
			var got Response
			if err := codec.ReadResponse(bufio.NewReader(&buf), &got); err != nil {
				t.Fatalf("%s decode response: %v", name, err)
			}
			if len(got.Statuses) != 2 || got.Statuses[0] != StatusOK || got.Statuses[1] != StatusNotFound {
				t.Fatalf("%s statuses mismatch: %v", name, got.Statuses)
			}
			if len(got.Pairs) != 2 || string(got.Pairs[0].Value) != string(v1) || got.Pairs[0].Version != ver {
				t.Fatalf("%s response pairs mismatch: %+v", name, got.Pairs)
			}
		}
	})
}

// TestMultiOpOversizedPairCountRejected hand-builds a binary frame whose
// pair count claims more pairs than the frame could hold; the decoder must
// reject it rather than allocate for it.
func TestMultiOpOversizedPairCountRejected(t *testing.T) {
	var body []byte
	put := func(v uint64) { body = binary.AppendUvarint(body, v) }
	putBytes := func(b []byte) { put(uint64(len(b))); body = append(body, b...) }
	put(1)                // ID
	put(uint64(OpMPut))   // Op
	putBytes([]byte("t")) // Table
	putBytes(nil)         // Key
	putBytes(nil)         // Value
	putBytes(nil)         // EndKey
	put(0)                // Limit
	put(0)                // Version
	put(0)                // Level
	put(0)                // Epoch
	put(0)                // TraceID
	put(uint64(1) << 40)  // pair count: absurd
	frame := make([]byte, 4, 4+len(body))
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	frame = append(frame, body...)

	var req Request
	if err := (BinaryCodec{}).ReadRequest(bufio.NewReader(bytes.NewReader(frame)), &req); err == nil {
		t.Fatalf("oversized pair count accepted: %+v", req)
	}
}
