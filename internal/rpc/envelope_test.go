package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"bespokv/internal/transport"
)

// lockMsg / tokenMsg are shaped like dlm.LockArgs / dlm.LockReply: the
// message pair the AA+SC data path sends twice per operation.
type lockMsg struct {
	Key, Owner, Mode string
	TTLMs, WaitMs    int
}

func (m *lockMsg) AppendWire(dst []byte) []byte {
	dst = AppendWireBytes(dst, m.Key)
	dst = AppendWireBytes(dst, m.Owner)
	dst = AppendWireBytes(dst, m.Mode)
	dst = binary.AppendVarint(dst, int64(m.TTLMs))
	return binary.AppendVarint(dst, int64(m.WaitMs))
}

func (m *lockMsg) ParseWire(src []byte) error {
	r := NewWireReader(src)
	*m = lockMsg{
		Key:    string(r.Bytes()),
		Owner:  string(r.Bytes()),
		Mode:   string(r.Bytes()),
		TTLMs:  int(r.Varint()),
		WaitMs: int(r.Varint()),
	}
	return r.Done()
}

type tokenMsg struct{ Token uint64 }

func (m *tokenMsg) AppendWire(dst []byte) []byte { return binary.AppendUvarint(dst, m.Token) }

func (m *tokenMsg) ParseWire(src []byte) error {
	r := NewWireReader(src)
	*m = tokenMsg{Token: r.Uvarint()}
	return r.Done()
}

// jsonToken is tokenMsg without the codec.
type jsonToken struct{ Token uint64 }

func newEnvelopePair(t testing.TB) *Client {
	t.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	HandleFunc(s, "WireWire", func(a lockMsg) (tokenMsg, error) {
		return tokenMsg{Token: uint64(len(a.Key) + len(a.Owner) + a.TTLMs)}, nil
	})
	HandleFunc(s, "WireJSON", func(a lockMsg) (jsonToken, error) {
		return jsonToken{Token: uint64(len(a.Key) + len(a.Owner) + a.TTLMs)}, nil
	})
	HandleFunc(s, "JSONWire", func(a addArgs) (tokenMsg, error) {
		return tokenMsg{Token: uint64(a.A + a.B)}, nil
	})
	HandleFunc(s, "JSONJSON", func(a addArgs) (addArgs, error) { return addArgs{A: a.B, B: a.A}, nil })
	HandleFunc(s, "NoReply", func(a lockMsg) (struct{}, error) {
		if a.Key == "" {
			return struct{}{}, errors.New("empty key")
		}
		return struct{}{}, nil
	})
	HandleFunc(s, "Zero", func(a addArgs) (int, error) { return a.A + a.B + 7, nil })
	s.HandleOrdered("Ordered", orderedLock)
	HandleFunc(s, "Unmarshalable", func(struct{}) (chan int, error) { return make(chan int), nil })
	addr, err := s.Serve(net, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := DialClient(net, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestPayloadKinds: every pairing of Wire / non-Wire / nil args and replies
// round-trips through the one frame format.
func TestPayloadKinds(t *testing.T) {
	c := newEnvelopePair(t)
	lock := &lockMsg{Key: "k1", Owner: "me", Mode: "w", TTLMs: 5, WaitMs: -1}

	var tok tokenMsg
	if err := c.Call("WireWire", lock, &tok); err != nil || tok.Token != 9 {
		t.Fatalf("wire args + wire reply: %v %+v", err, tok)
	}
	var jt jsonToken
	if err := c.Call("WireJSON", lock, &jt); err != nil || jt.Token != 9 {
		t.Fatalf("wire args + json reply: %v %+v", err, jt)
	}
	tok = tokenMsg{}
	if err := c.Call("JSONWire", addArgs{A: 2, B: 3}, &tok); err != nil || tok.Token != 5 {
		t.Fatalf("json args + wire reply: %v %+v", err, tok)
	}
	var swapped addArgs
	if err := c.Call("JSONJSON", addArgs{A: 2, B: 3}, &swapped); err != nil || swapped != (addArgs{A: 3, B: 2}) {
		t.Fatalf("non-Wire struct both ways: %v %+v", err, swapped)
	}
	// A Wire type passed by value is not a Wire (the methods are on the
	// pointer): it goes out as JSON and the server decodes it all the same.
	tok = tokenMsg{}
	if err := c.Call("WireWire", *lock, &tok); err != nil || tok.Token != 9 {
		t.Fatalf("wire type by value: %v %+v", err, tok)
	}
	// A wire reply cannot land in a non-Wire target; the call says so.
	if err := c.Call("WireWire", lock, &jt); err == nil || !strings.Contains(err.Error(), "non-Wire") {
		t.Fatalf("wire reply into json target: %v", err)
	}
	// nil reply discards a wire, a JSON and an absent result alike.
	for _, m := range []string{"WireWire", "WireJSON", "NoReply"} {
		if err := c.Call(m, lock, nil); err != nil {
			t.Fatalf("%s with nil reply: %v", m, err)
		}
	}
	// nil args reach the handler as the zero value.
	var n int
	if err := c.Call("Zero", nil, &n); err != nil || n != 7 {
		t.Fatalf("nil args: %v n=%d", err, n)
	}
	// A struct{} result is no payload; a reply target stays untouched, and
	// the handler's error text crosses verbatim.
	n = 42
	if err := c.Call("NoReply", lock, &n); err != nil || n != 42 {
		t.Fatalf("no-payload reply: %v n=%d", err, n)
	}
	if err := c.Call("NoReply", &lockMsg{}, nil); err == nil || err.Error() != "empty key" {
		t.Fatalf("error text: %v", err)
	}
	// Malformed wire args are the caller's error, not a dead connection.
	if err := c.Call("WireWire", &tokenMsg{Token: 1 << 40}, &tok); err == nil || !strings.Contains(err.Error(), "bad args for WireWire") {
		t.Fatalf("malformed wire args: %v", err)
	}
	if err := c.Call("Zero", addArgs{A: 1}, &n); err != nil || n != 8 {
		t.Fatalf("connection unusable after bad args: %v n=%d", err, n)
	}
}

// TestMarshalErrorLeavesNoPendingSlot: args that cannot be encoded fail the
// call before it is registered. The JSON envelope registered first and
// leaked the slot (and its channel) on this path.
func TestMarshalErrorLeavesNoPendingSlot(t *testing.T) {
	c := newEnvelopePair(t)
	for i := 0; i < 3; i++ {
		if err := c.Call("Zero", make(chan int), nil); err == nil {
			t.Fatal("chan args must fail to marshal")
		}
	}
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d pending slots leaked by failed marshals", pending)
	}
	var n int
	if err := c.Call("Zero", addArgs{A: 1, B: 1}, &n); err != nil || n != 9 {
		t.Fatalf("client unusable after marshal error: %v n=%d", err, n)
	}
}

// TestUnmarshalableResultAnswers: a result the server cannot encode comes
// back as an error frame at once. The JSON envelope dropped the response
// and the caller sat out its whole CallTimeout.
func TestUnmarshalableResultAnswers(t *testing.T) {
	c := newEnvelopePair(t)
	c.CallTimeout = 5 * time.Second
	start := time.Now()
	err := c.Call("Unmarshalable", struct{}{}, nil)
	if err == nil || !strings.HasPrefix(err.Error(), "rpc: marshal result: ") {
		t.Fatalf("want a marshal-result error frame, got %v", err)
	}
	if errors.Is(err, ErrCallTimeout) || time.Since(start) > 2*time.Second {
		t.Fatalf("caller waited %v for a dropped response: %v", time.Since(start), err)
	}
}

// TestCallWireAllocs gates the allocations of a Lock-shaped round trip to
// an ordered method, client and server together, everything but the
// handler's own work. What is left: the caller's args and reply escaping
// into `any` (2) and the server's boxed result (1): 3 measured. The same
// call through HandleFunc's concurrent dispatch adds the args value and its
// two strings (6 measured, 2.7 µs); the JSON envelope of PR 11 measured 50.
func TestCallWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under -race")
	}
	c := newEnvelopePair(t)
	c.CallTimeout = DefaultCallTimeout
	call := func() {
		var tok tokenMsg
		if err := c.Call("Ordered", &lockMsg{Key: "user0000000042", Owner: "s0-r1", Mode: "w", TTLMs: 1000, WaitMs: 1000}, &tok); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call() // fill the pools
	}
	const limit = 3
	if got := testing.AllocsPerRun(2000, call); got > limit {
		t.Fatalf("wire round trip: %.1f allocs, limit %d", got, limit)
	}
}

func frameOf(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func requestFrame(t testing.TB, kind byte, method string, payload []byte) []byte {
	t.Helper()
	buf, err := appendRequest(nil, 7, 9, method)
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, payload...)
	if err := finishFrame(buf, kind); err != nil {
		t.Fatal(err)
	}
	return buf
}

// decodeFrames runs the server's and the client's decoders over a byte
// stream the way serveConn and readLoop do, returning the first error.
func decodeFrames(stream []byte) (reqs []request, reqErr error, resps []response, respErr error) {
	br := bufio.NewReader(bytes.NewReader(stream))
	for {
		body, err := readFrame(br, nil)
		if err == nil {
			var r request
			if r, err = parseRequest(body); err == nil {
				reqs = append(reqs, r)
				continue
			}
		}
		reqErr = err
		break
	}
	br = bufio.NewReader(bytes.NewReader(stream))
	for {
		body, err := readFrame(br, nil)
		if err == nil {
			var r response
			if r, err = parseResponse(body); err == nil {
				resps = append(resps, r)
				continue
			}
		}
		respErr = err
		break
	}
	return
}

func TestFrameRejections(t *testing.T) {
	good := requestFrame(t, kindJSON, "Add", []byte(`{"A":1}`))
	reqs, err, _, _ := decodeFrames(good)
	if len(reqs) != 1 || err == nil || reqs[0].id != 0 || reqs[0].tid != 7 || reqs[0].budget != 9 ||
		string(reqs[0].method) != "Add" || string(reqs[0].payload) != `{"A":1}` {
		t.Fatalf("good frame: %+v, then %v", reqs, err)
	}
	resp := appendResponse(nil, 3)
	resp = append(resp, "boom"...)
	if err := finishFrame(resp, kindError); err != nil {
		t.Fatal(err)
	}
	if _, _, resps, _ := decodeFrames(resp); len(resps) != 1 || resps[0].id != 3 || resps[0].kind != kindError || string(resps[0].payload) != "boom" {
		t.Fatalf("good response: %+v", resps)
	}

	oversized := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	badKind := bytes.Clone(good)
	badKind[lenSize] = kindWire + 1 // kindError is a response-only kind
	trailing := requestFrame(t, kindNone, "Add", []byte("x"))
	shortMethod := bytes.Clone(good[:lenSize+reqHdrSize+1])
	binary.LittleEndian.PutUint32(shortMethod, uint32(len(shortMethod)-lenSize))
	for name, stream := range map[string][]byte{
		"truncated length":  good[:2],
		"truncated body":    good[:len(good)-3],
		"oversized":         oversized,
		"bad payload kind":  badKind,
		"trailing garbage":  trailing,
		"method past frame": shortMethod,
		"empty body":        frameOf(nil),
	} {
		reqs, err, _, _ := decodeFrames(stream)
		if len(reqs) != 0 || err == nil {
			t.Errorf("%s: decoded %d requests, err %v", name, len(reqs), err)
		}
	}
	respBad := bytes.Clone(resp)
	respBad[lenSize] = kindError + 1
	if _, _, resps, err := decodeFrames(respBad); len(resps) != 0 || err == nil {
		t.Errorf("response with bad kind: %+v %v", resps, err)
	}
	if err := finishFrame(make([]byte, lenSize+maxFrame+1), kindJSON); !errors.Is(err, errFrameTooLarge) {
		t.Errorf("finishFrame past maxFrame: %v", err)
	}
}

// FuzzRPCFrame: the envelope decoders never panic, never hand out a frame
// past maxFrame, and whatever they accept re-encodes to the same bytes.
func FuzzRPCFrame(f *testing.F) {
	f.Add(requestFrame(f, kindJSON, "Add", []byte(`{"A":1,"B":2}`)))
	f.Add(requestFrame(f, kindWire, "Lock", (&lockMsg{Key: "k", Owner: "o", Mode: "w"}).AppendWire(nil)))
	f.Add(requestFrame(f, kindNone, "Tail", nil))
	f.Add(oneWayFrame(f))
	numbered := oneWayFrame(f)
	binary.LittleEndian.PutUint64(numbered[idOffset:], 1<<40)
	f.Add(numbered)
	f.Add(requestFrame(f, kindNone, "Tail", []byte("trailing")))
	f.Add(requestFrame(f, kindError, "Add", []byte("x")))
	resp := append(appendResponse(nil, 1), "rpc: unknown method X"...)
	_ = finishFrame(resp, kindError)
	f.Add(resp)
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrame+1))
	f.Add([]byte{3, 0, 0})
	f.Add(frameOf([]byte{kindJSON}))
	f.Fuzz(func(t *testing.T, stream []byte) {
		reqs, _, resps, _ := decodeFrames(stream)
		for _, r := range reqs {
			if len(r.payload) > maxFrame || r.kind > kindWire || (r.kind == kindNone && len(r.payload) != 0) {
				t.Fatalf("accepted bad request %+v", r)
			}
			buf, err := appendRequest(nil, r.tid, r.budget, string(r.method))
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(buf[idOffset:], r.id)
			buf = append(buf, r.payload...)
			if err := finishFrame(buf, r.kind); err != nil {
				t.Fatal(err)
			}
			back, err := parseRequest(buf[lenSize:])
			if err != nil || back.id != r.id || back.tid != r.tid || back.budget != r.budget || back.kind != r.kind ||
				!bytes.Equal(back.method, r.method) || !bytes.Equal(back.payload, r.payload) {
				t.Fatalf("request round trip: %+v -> %+v (%v)", r, back, err)
			}
			// Whatever the payload claims to be, decoding it must not panic.
			var lock lockMsg
			_ = decodePayload(r.kind, r.payload, &lock)
			var tok jsonToken
			_ = decodePayload(r.kind, r.payload, &tok)
		}
		for _, r := range resps {
			if len(r.payload) > maxFrame || r.kind > kindError || (r.kind == kindNone && len(r.payload) != 0) {
				t.Fatalf("accepted bad response %+v", r)
			}
		}
	})
}

func runCallBench(b *testing.B, call func(c *Client) error) {
	c := newEnvelopePair(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := call(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCallWire is a Lock-shaped round trip over inproc with Wire args
// and reply; BenchmarkCallJSON is the same call through the JSON payload
// path, BenchmarkCallOrdered through an ordered method that parses in
// place. Run with -cpu 1,2: the callers share one connection.
func BenchmarkCallWire(b *testing.B) {
	runCallBench(b, func(c *Client) error {
		var tok tokenMsg
		return c.Call("WireWire", &lockMsg{Key: "user0000000042", Owner: "s0-r1", Mode: "w", TTLMs: 1000, WaitMs: 1000}, &tok)
	})
}

func BenchmarkCallOrdered(b *testing.B) {
	runCallBench(b, func(c *Client) error {
		var tok tokenMsg
		return c.Call("Ordered", &lockMsg{Key: "user0000000042", Owner: "s0-r1", Mode: "w", TTLMs: 1000, WaitMs: 1000}, &tok)
	})
}

func BenchmarkCallJSON(b *testing.B) {
	runCallBench(b, func(c *Client) error {
		var tok jsonToken
		return c.Call("WireJSON", lockMsg{Key: "user0000000042", Owner: "s0-r1", Mode: "w", TTLMs: 1000, WaitMs: 1000}, &tok)
	})
}
