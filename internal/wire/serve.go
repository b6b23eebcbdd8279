package wire

import (
	"bufio"
	"errors"
	"io"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/trace"
)

// ConnBufSize sizes a served connection's read and write buffers; matched to
// the pipelined client's so one flush there fits in one read here.
const ConnBufSize = 64 << 10

// ConnHandler is what a server plugs into ServeConn: its codec, the handler
// that answers a request, and its per-op record. One value serves every
// connection of a server, so the funcs are bound once, not per connection.
type ConnHandler struct {
	Codec Codec
	// Node and Layer name the server in trace spans: a traced request is
	// recorded at Node under the stage Layer + "." + op.
	Node, Layer string
	// Handle answers req into resp. A handler that answers with frames of
	// its own (the datalet's export streams) writes and flushes them on w
	// and reports streamed; ServeConn then sends and records nothing for
	// the request. An error ends the connection.
	Handle func(req *Request, resp *Response, w *bufio.Writer) (streamed bool, err error)
	// Record, when set, is the server's per-op record (its
	// telemetry.Recorder's RecordOp), called once for every request
	// ServeConn answers. dur is negative when the request was not timed
	// (latency is sampled, see metrics.SampleLatency).
	Record func(req *Request, resp *Response, dur time.Duration)
	// Epoch, when set, reports the server's current cluster-map epoch: a
	// request stamped with an older one is answered with the current one
	// so the lagging client refreshes its map.
	Epoch func() uint64
}

// ServeConn answers one connection's requests in order until the peer hangs
// up, which preserves FIFO response ordering (required by the text protocol
// and relied on by every client). Responses are flush-coalesced: while more
// pipelined requests sit in the read buffer they are only encoded, and one
// flush covers the whole burst once the buffer drains. It returns the read
// error that ended the connection, nil for a clean or mid-frame hang-up and
// for a failed write.
func ServeConn(conn io.ReadWriter, h *ConnHandler) error {
	br := bufio.NewReaderSize(conn, ConnBufSize)
	bw := bufio.NewWriterSize(conn, ConnBufSize)
	bcd, _ := h.Codec.(BufferedCodec)
	var req Request
	var resp Response
	for {
		req.Reset()
		if err := h.Codec.ReadRequest(br, &req); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		resp.Reset()
		req.ArmDeadline(time.Now)
		start := metrics.Start(req.TraceID != 0)
		streamed, err := h.Handle(&req, &resp, bw)
		if err != nil {
			return nil
		}
		if streamed {
			continue
		}
		dur := metrics.Since(start)
		if req.TraceID != 0 {
			trace.Record(req.TraceID, h.Node, h.Layer+"."+req.Op.String(), start, dur, resp.Err)
		}
		if h.Record != nil {
			h.Record(&req, &resp, dur)
		}
		// The handler may have decoded nested peer or datalet responses
		// into resp, overwriting its ID; stamp it after the fact so the
		// reply always echoes the request it answers.
		resp.ID = req.ID
		if h.Epoch != nil && req.Epoch != 0 {
			if cur := h.Epoch(); req.Epoch < cur {
				resp.Epoch = cur
			}
		}
		if bcd != nil && br.Buffered() > 0 {
			if err := bcd.EncodeResponse(bw, &resp); err != nil {
				return nil
			}
			continue
		}
		if err := h.Codec.WriteResponse(bw, &resp); err != nil {
			return nil
		}
	}
}
