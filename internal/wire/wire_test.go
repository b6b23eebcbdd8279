package wire

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func normalizeReq(r *Request) {
	if len(r.Key) == 0 {
		r.Key = nil
	}
	if len(r.Value) == 0 {
		r.Value = nil
	}
	if len(r.EndKey) == 0 {
		r.EndKey = nil
	}
}

func normalizeResp(r *Response) {
	if len(r.Value) == 0 {
		r.Value = nil
	}
	if len(r.Pairs) == 0 {
		r.Pairs = nil
	}
	for i := range r.Pairs {
		if len(r.Pairs[i].Key) == 0 {
			r.Pairs[i].Key = nil
		}
		if len(r.Pairs[i].Value) == 0 {
			r.Pairs[i].Value = nil
		}
	}
}

func roundtripRequest(t *testing.T, c Codec, in Request) Request {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := c.WriteRequest(w, &in); err != nil {
		t.Fatalf("%s WriteRequest: %v", c.Name(), err)
	}
	var out Request
	if err := c.ReadRequest(bufio.NewReader(&buf), &out); err != nil {
		t.Fatalf("%s ReadRequest: %v", c.Name(), err)
	}
	return out
}

func roundtripResponse(t *testing.T, c Codec, in Response) Response {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := c.WriteResponse(w, &in); err != nil {
		t.Fatalf("%s WriteResponse: %v", c.Name(), err)
	}
	var out Response
	if err := c.ReadResponse(bufio.NewReader(&buf), &out); err != nil {
		t.Fatalf("%s ReadResponse: %v", c.Name(), err)
	}
	return out
}

func testCodecs(t *testing.T, fn func(t *testing.T, c Codec)) {
	for _, name := range Codecs() {
		c, err := LookupCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { fn(t, c) })
	}
}

func TestRequestRoundtrip(t *testing.T) {
	testCodecs(t, func(t *testing.T, c Codec) {
		in := Request{
			ID:      42,
			Op:      OpPut,
			Table:   "metrics",
			Key:     []byte("k1"),
			Value:   []byte("v1"),
			EndKey:  []byte("k9"),
			Limit:   100,
			Version: 7,
			Level:   LevelStrong,
			Epoch:   3,
		}
		out := roundtripRequest(t, c, in)
		if c.Name() == "text" {
			in.ID = 0 // text protocol does not carry IDs
		}
		normalizeReq(&in)
		normalizeReq(&out)
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("roundtrip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	})
}

// TestMultiPutRoundtrip: every multi-put frame — the client's, the
// chain's and the write-all's, versions set on the internal hops — and its
// per-pair answer round-trip through both codecs.
func TestMultiPutRoundtrip(t *testing.T) {
	testCodecs(t, func(t *testing.T, c Codec) {
		for _, op := range []Op{OpMPut, OpChainMPut, OpReplMPut} {
			in := Request{
				ID:       42,
				Op:       op,
				Table:    "t",
				Epoch:    6,
				TraceID:  11,
				Deadline: 50_000,
				Pairs: []KV{
					{Key: []byte("a"), Value: []byte("1"), Version: 1 << 40},
					{Key: []byte("b"), Value: []byte("22"), Version: 1<<40 + 1},
				},
			}
			out := roundtripRequest(t, c, in)
			if c.Name() == "text" {
				in.ID = 0
			}
			normalizeReq(&in)
			normalizeReq(&out)
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("%s roundtrip mismatch:\n in=%+v\nout=%+v", op, in, out)
			}
		}
		in := Response{
			ID:       42,
			Status:   StatusOK,
			Pairs:    []KV{{Version: 1 << 40}, {}},
			Statuses: []Status{StatusOK, StatusWrongEpoch},
		}
		out := roundtripResponse(t, c, in)
		if c.Name() == "text" {
			in.ID = 0
		}
		normalizeResp(&in)
		normalizeResp(&out)
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("per-pair answer roundtrip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	})
}

func TestResponseRoundtrip(t *testing.T) {
	testCodecs(t, func(t *testing.T, c Codec) {
		in := Response{
			ID:      42,
			Status:  StatusOK,
			Value:   []byte("hello"),
			Pairs:   []KV{{Key: []byte("a"), Value: []byte("1"), Version: 1}, {Key: []byte("b"), Value: []byte("2"), Version: 2}},
			Version: 9,
			Epoch:   4,
			Err:     "",
		}
		out := roundtripResponse(t, c, in)
		if c.Name() == "text" {
			in.ID = 0
		}
		normalizeResp(&in)
		normalizeResp(&out)
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("roundtrip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	})
}

func TestEmptyFieldsRoundtrip(t *testing.T) {
	testCodecs(t, func(t *testing.T, c Codec) {
		out := roundtripRequest(t, c, Request{Op: OpNop})
		if out.Op != OpNop || len(out.Key) != 0 || len(out.Value) != 0 || out.Table != "" {
			t.Fatalf("empty request mangled: %+v", out)
		}
		resp := roundtripResponse(t, c, Response{Status: StatusNotFound})
		if resp.Status != StatusNotFound || len(resp.Value) != 0 || len(resp.Pairs) != 0 {
			t.Fatalf("empty response mangled: %+v", resp)
		}
	})
}

func TestErrStatusRoundtrip(t *testing.T) {
	testCodecs(t, func(t *testing.T, c Codec) {
		in := Response{Status: StatusErr, Err: "engine: disk full"}
		out := roundtripResponse(t, c, in)
		if out.Status != StatusErr || out.Err != in.Err {
			t.Fatalf("got %+v", out)
		}
		if out.ErrValue() == nil {
			t.Fatal("ErrValue should be non-nil for StatusErr")
		}
	})
}

func TestErrValueNilOnOK(t *testing.T) {
	r := Response{Status: StatusOK}
	if r.ErrValue() != nil {
		t.Fatal("OK response must yield nil error")
	}
	r = Response{Status: StatusNotFound}
	if r.ErrValue() != nil {
		t.Fatal("NotFound is not an error at the wire layer")
	}
}

func TestRequestRoundtripQuick(t *testing.T) {
	testCodecs(t, func(t *testing.T, c Codec) {
		f := func(id uint64, op uint8, table string, key, value, endKey []byte, limit uint32, version uint64, level uint8, epoch uint64) bool {
			in := Request{
				ID:      id,
				Op:      Op(op % uint8(OpMax+1)),
				Table:   table,
				Key:     key,
				Value:   value,
				EndKey:  endKey,
				Limit:   limit,
				Version: version,
				Level:   Level(level % 3),
				Epoch:   epoch,
			}
			out := roundtripRequest(t, c, in)
			if c.Name() == "text" {
				in.ID = 0
			}
			normalizeReq(&in)
			normalizeReq(&out)
			return reflect.DeepEqual(in, out)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestResponseRoundtripQuick(t *testing.T) {
	testCodecs(t, func(t *testing.T, c Codec) {
		f := func(id uint64, status uint8, value []byte, keys [][]byte, version, epoch uint64, errStr string) bool {
			in := Response{
				ID:      id,
				Status:  Status(status % 6),
				Value:   value,
				Version: version,
				Epoch:   epoch,
				Err:     errStr,
			}
			for i, k := range keys {
				in.Pairs = append(in.Pairs, KV{Key: k, Value: []byte{byte(i)}, Version: uint64(i)})
			}
			out := roundtripResponse(t, c, in)
			if c.Name() == "text" {
				in.ID = 0
			}
			normalizeResp(&in)
			normalizeResp(&out)
			return reflect.DeepEqual(in, out)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPipelinedMessages(t *testing.T) {
	testCodecs(t, func(t *testing.T, c Codec) {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		const n = 16
		for i := 0; i < n; i++ {
			req := Request{ID: uint64(i), Op: OpPut, Key: []byte{byte(i)}, Value: []byte{byte(i), byte(i)}}
			if err := c.WriteRequest(w, &req); err != nil {
				t.Fatal(err)
			}
		}
		r := bufio.NewReader(&buf)
		var req Request
		for i := 0; i < n; i++ {
			if err := c.ReadRequest(r, &req); err != nil {
				t.Fatalf("message %d: %v", i, err)
			}
			if len(req.Key) != 1 || req.Key[0] != byte(i) {
				t.Fatalf("message %d out of order: key=%v", i, req.Key)
			}
		}
		if _, err := r.ReadByte(); err != io.EOF {
			t.Fatalf("expected EOF after %d messages, got %v", n, err)
		}
	})
}

func TestBufferReuseDoesNotAlias(t *testing.T) {
	testCodecs(t, func(t *testing.T, c Codec) {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		first := Request{Op: OpPut, Key: []byte("aaaa"), Value: []byte("1111")}
		second := Request{Op: OpPut, Key: []byte("bb"), Value: []byte("22")}
		if err := c.WriteRequest(w, &first); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteRequest(w, &second); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(&buf)
		var req Request
		if err := c.ReadRequest(r, &req); err != nil {
			t.Fatal(err)
		}
		gotFirst := string(req.Key)
		if err := c.ReadRequest(r, &req); err != nil {
			t.Fatal(err)
		}
		if gotFirst != "aaaa" || string(req.Key) != "bb" {
			t.Fatalf("buffer reuse corrupted keys: %q then %q", gotFirst, req.Key)
		}
	})
}

func TestBinaryRejectsOversizedFrame(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff} // 4 GiB frame header
	var req Request
	err := BinaryCodec{}.ReadRequest(bufio.NewReader(bytes.NewReader(raw)), &req)
	if err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestTextRejectsGarbage(t *testing.T) {
	cases := []string{
		"+PING\r\n",           // not an array
		"*2\r\n$3\r\nFOO\r\n", // wrong arity
		"*9\r\n$7\r\nBADVERB\r\n$0\r\n\r\n$0\r\n\r\n$0\r\n\r\n$0\r\n\r\n$1\r\n0\r\n$1\r\n0\r\n$1\r\n0\r\n$1\r\n0\r\n",
	}
	for _, in := range cases {
		var req Request
		if err := (TextCodec{}).ReadRequest(bufio.NewReader(strings.NewReader(in)), &req); err == nil {
			t.Fatalf("input %q should not parse", in)
		}
	}
}

func TestLookupCodec(t *testing.T) {
	for _, name := range []string{"binary", "text"} {
		c, err := LookupCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name {
			t.Fatalf("got %q", c.Name())
		}
	}
	if _, err := LookupCodec("nope"); err == nil {
		t.Fatal("unknown codec must error")
	}
	def := Codec(BinaryCodec{})
	for name, want := range map[string]string{"": "binary", "binary": "binary", "text": "text", "nope": "binary"} {
		if got := CodecOr(name, def).Name(); got != want {
			t.Fatalf("CodecOr(%q, binary) = %s, want %s", name, got, want)
		}
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	if OpPut.String() != "PUT" || OpScan.String() != "SCAN" || Op(200).String() == "" {
		t.Fatal("Op.String broken")
	}
	if StatusOK.String() != "OK" || Status(99).String() == "" {
		t.Fatal("Status.String broken")
	}
	if LevelStrong.String() != "strong" || Level(7).String() == "" {
		t.Fatal("Level.String broken")
	}
}

func TestRequestReset(t *testing.T) {
	r := Request{ID: 1, Op: OpPut, Table: "t", Key: []byte("k"), Value: []byte("v"), EndKey: []byte("e"), Limit: 1, Version: 2, Level: LevelStrong, Epoch: 3}
	r.Reset()
	if r.ID != 0 || r.Op != OpNop || r.Table != "" || len(r.Key) != 0 || len(r.Value) != 0 || len(r.EndKey) != 0 || r.Limit != 0 || r.Version != 0 || r.Level != LevelDefault || r.Epoch != 0 {
		t.Fatalf("reset left state: %+v", r)
	}
	resp := Response{ID: 1, Status: StatusErr, Value: []byte("v"), Pairs: []KV{{}}, Version: 1, Epoch: 1, Err: "x"}
	resp.Reset()
	if resp.ID != 0 || resp.Status != StatusOK || len(resp.Value) != 0 || len(resp.Pairs) != 0 || resp.Err != "" {
		t.Fatalf("reset left state: %+v", resp)
	}
}

// A read's level resolves the same way for every caller: strong and
// eventual are what they say, default follows the mode.
func TestLevelStrong(t *testing.T) {
	for _, c := range []struct {
		l             Level
		defaultStrong bool
		want          bool
	}{
		{LevelStrong, false, true},
		{LevelEventual, true, false},
		{LevelDefault, true, true},
		{LevelDefault, false, false},
		{Level(7), true, false},
	} {
		if got := c.l.Strong(c.defaultStrong); got != c.want {
			t.Errorf("%s under defaultStrong=%v: strong=%v, want %v", c.l, c.defaultStrong, got, c.want)
		}
	}
}
