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
		Record: func(req *Request, _ *Response, _ time.Duration) { recorded = append(recorded, req.Op) },
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
