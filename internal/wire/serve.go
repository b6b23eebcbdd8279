package wire

import (
	"bufio"
	"errors"
	"io"
	"math/rand/v2"
	"time"

	"bespokv/internal/clock"
	"bespokv/internal/metrics"
	"bespokv/internal/trace"
)

// ConnBufSize sizes the read and write buffers at both ends of a data
// connection: a served one here and a pipelined datalet.Client, so one
// flush there fits in one read here. It is matched to the largest frame the
// workloads send, a 64-pair MultiPut preload frame of about 4 KB, since
// their pipelined batches average about one request. A larger frame is
// read through fillFrame's pooled scratch buffer, and a larger burst costs
// one more flush.
const ConnBufSize = 8 << 10

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
	// ServeConn answers, with the connection's ConnState. dur is negative
	// when the request was not timed (latency is sampled, see
	// metrics.Sampler).
	Record func(conn *ConnState, req *Request, resp *Response, dur time.Duration)
	// Epoch, when set, reports the server's current cluster-map epoch: a
	// request stamped with an older one is answered with the current one
	// so the lagging client refreshes its map.
	Epoch func() uint64
}

// ConnState is what a server's per-op record keeps for one served
// connection between its requests. ServeConn owns one per connection, so
// only that connection's goroutine writes it: a per-stream tick costs no
// counter another core writes too (the latency tick, metrics.Sampler,
// follows the same rule).
type ConnState struct {
	// Tick counts the keys the record has seen on this connection; the
	// telemetry recorder samples its hot-key sketch touches off it, 1 in
	// N. It starts at a random value, so a connection that lives for a
	// request or two is sampled 1 in N in expectation too, not never.
	Tick uint32
	// The state fills a cache line of its own: a bare 4-byte state can
	// share one with another connection's (small objects are packed
	// together), and the two cores serving them would write one line.
	_ [60]byte
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
	var lat metrics.Sampler // this connection's 1-in-N latency tick
	state := ConnState{Tick: rand.Uint32()}
	for {
		req.Reset()
		if err := h.Codec.ReadRequest(br, &req); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		resp.Reset()
		req.ArmDeadline(clock.Mono)
		start := lat.Start(req.TraceID != 0)
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
			h.Record(&state, &req, &resp, dur)
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
