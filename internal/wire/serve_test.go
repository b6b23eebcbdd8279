package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

// scriptedConn feeds ServeConn a prepared byte stream and keeps what it
// writes, one entry per Write — i.e. per flush.
type scriptedConn struct {
	in     io.Reader
	writes [][]byte
}

func (c *scriptedConn) Read(p []byte) (int, error) { return c.in.Read(p) }
func (c *scriptedConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

func encodeRequests(t *testing.T, reqs ...*Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	for _, r := range reqs {
		if err := (BinaryCodec{}).WriteRequest(bw, r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func decodeResponses(t *testing.T, writes [][]byte) []Response {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(bytes.Join(writes, nil)))
	var out []Response
	for {
		var r Response
		if err := (BinaryCodec{}).ReadResponse(br, &r); err != nil {
			if err == io.EOF {
				return out
			}
			t.Fatal(err)
		}
		out = append(out, r)
	}
}

func TestServeConn(t *testing.T) {
	var recorded []Op
	h := &ConnHandler{
		Codec: BinaryCodec{}, Node: "n", Layer: "test",
		Handle: func(req *Request, resp *Response, w *bufio.Writer) (bool, error) {
			if req.Op == OpExport { // answers with two frames of its own
				for _, v := range []uint64{1, 2} {
					if err := (BinaryCodec{}).WriteResponse(w, &Response{ID: req.ID, Status: StatusOK, Version: v}); err != nil {
						return true, err
					}
				}
				return true, nil
			}
			resp.Status = StatusOK
			resp.Value = append(resp.Value[:0], req.Key...)
			resp.ID = 999 // as a nested peer response decoded into resp would
			return false, nil
		},
		Record: func(_ *ConnState, req *Request, _ *Response, _ time.Duration) { recorded = append(recorded, req.Op) },
		Epoch:  func() uint64 { return 7 },
	}
	conn := &scriptedConn{in: bytes.NewReader(encodeRequests(t,
		&Request{ID: 1, Op: OpGet, Key: []byte("a")},           // no epoch: never stamped
		&Request{ID: 2, Op: OpGet, Key: []byte("b"), Epoch: 3}, // lagging: told the current one
		&Request{ID: 3, Op: OpGet, Key: []byte("c"), Epoch: 7}, // current
		&Request{ID: 4, Op: OpExport},
		&Request{ID: 5, Op: OpGet, Key: []byte("e"), Epoch: 9}, // ahead of the server
	))}
	if err := ServeConn(conn, h); err != nil {
		t.Fatalf("clean hang-up reported as %v", err)
	}
	got := decodeResponses(t, conn.writes)
	if len(got) != 6 {
		t.Fatalf("%d response frames, want 6", len(got))
	}
	for i, want := range []struct {
		id, epoch, version uint64
		value              string
	}{{1, 0, 0, "a"}, {2, 7, 0, "b"}, {3, 0, 0, "c"}, {4, 0, 1, ""}, {4, 0, 2, ""}, {5, 0, 0, "e"}} {
		r := got[i]
		if r.ID != want.id || r.Epoch != want.epoch || r.Version != want.version || string(r.Value) != want.value {
			t.Errorf("frame %d = id %d epoch %d version %d value %q, want %+v", i, r.ID, r.Epoch, r.Version, r.Value, want)
		}
	}
	// The whole burst was in the read buffer: replies 1-3 are only encoded
	// and leave with the stream's first flush; the stream flushes per frame
	// as its handler chose to; reply 5 found the buffer drained.
	if len(conn.writes) != 3 {
		t.Errorf("%d flushes for the burst, want 3", len(conn.writes))
	}
	// One record per answered frame; a streamed request is the handler's to
	// account.
	if want := []Op{OpGet, OpGet, OpGet, OpGet}; fmt.Sprint(recorded) != fmt.Sprint(want) {
		t.Errorf("recorded %v, want %v", recorded, want)
	}
}

func TestServeConnEndings(t *testing.T) {
	// No Record: what the baselines serve with.
	h := &ConnHandler{
		Codec:  BinaryCodec{},
		Handle: func(*Request, *Response, *bufio.Writer) (bool, error) { return false, nil },
	}
	frame := encodeRequests(t, &Request{ID: 1, Op: OpNop})
	if err := ServeConn(&scriptedConn{in: bytes.NewReader(frame[:len(frame)-2])}, h); err != nil {
		t.Errorf("hang-up inside a frame reported as %v", err)
	}
	boom := errors.New("boom")
	if err := ServeConn(&scriptedConn{in: io.MultiReader(bytes.NewReader(frame), errReader{boom})}, h); !errors.Is(err, boom) {
		t.Errorf("read error = %v, want %v", err, boom)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// A record's ConnState lives as long as its connection: every request of
// one connection sees what the record left there. Each connection's tick
// starts at a random value, so a record sampling 1 in 4 off it samples
// connections of one request too.
func TestServeConnState(t *testing.T) {
	starts := map[uint32]bool{}
	for c := 0; c < 32; c++ {
		var first uint32
		var seen []uint32
		h := &ConnHandler{
			Codec:  BinaryCodec{},
			Handle: func(*Request, *Response, *bufio.Writer) (bool, error) { return false, nil },
			Record: func(st *ConnState, _ *Request, _ *Response, _ time.Duration) {
				if seen == nil {
					first = st.Tick
				}
				seen = append(seen, st.Tick-first)
				st.Tick += 10
			},
		}
		conn := &scriptedConn{in: bytes.NewReader(encodeRequests(t,
			&Request{ID: 1, Op: OpGet}, &Request{ID: 2, Op: OpGet}, &Request{ID: 3, Op: OpGet}))}
		if err := ServeConn(conn, h); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(seen) != "[0 10 20]" {
			t.Fatalf("connection %d: the record saw ticks %v past its first, want [0 10 20]", c, seen)
		}
		starts[first%4] = true
	}
	if len(starts) < 2 {
		t.Fatalf("32 connections all started their tick at %v mod 4", starts)
	}
}

// TestPreloadFrameFitsConnBuf: the largest frame the workloads send, a
// 64-pair MultiPut of 16-byte keys and 32-byte values (versioned on the
// replication hop), fits ConnBufSize, so it is parsed in place from the
// connection's read buffer rather than through the scratch path.
func TestPreloadFrameFitsConnBuf(t *testing.T) {
	for _, op := range []Op{OpMPut, OpReplMPut} {
		req := Request{ID: 1 << 20, Op: op, Table: "default", Epoch: 1 << 20, TraceID: 1 << 60}
		for i := 0; i < 64; i++ {
			key := fmt.Sprintf("key-%012d", i)
			req.Pairs = append(req.Pairs, KV{Key: []byte(key), Value: bytes.Repeat([]byte("v"), 32), Version: 1 << 50})
		}
		n := len(encodeRequests(t, &req))
		t.Logf("%s: a 64-pair frame of %d bytes, ConnBufSize %d", op, n, ConnBufSize)
		if n > ConnBufSize {
			t.Errorf("%s: a 64-pair frame of %d bytes does not fit ConnBufSize (%d)", op, n, ConnBufSize)
		}
	}
}
