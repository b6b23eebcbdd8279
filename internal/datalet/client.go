// Asynchronous data-path client: the communication substrate the paper's
// controlet performance rests on (§IV, Fig. 9). A single connection carries
// many requests in flight — callers enqueue, a writer goroutine encodes the
// accumulated batch back-to-back and flushes once (write coalescing: one
// syscall covers a burst), and a reader goroutine matches responses to
// waiters in FIFO order, which every server in this repo guarantees per
// connection (see the comment on datalet.(*Server).serveConn; the text
// protocol depends on it by design). A call started on an idle connection
// skips both goroutines: its caller sends the frame and, unless a call
// queued behind it needs the reply read first, reads the answer itself.
package datalet

import (
	"bufio"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// maxInflight bounds requests awaiting responses per connection; senders
// beyond it block (backpressure) rather than queue unbounded.
const maxInflight = 1024

// failedLoad is what a failed connection's load is raised by; no live
// connection comes near half of it.
const failedLoad = 1 << 62

// ErrClientClosed is returned after the connection has failed or closed.
var ErrClientClosed = errors.New("datalet: client closed")

// ErrCallTimeout fails a connection whose pipeline stalled: requests were
// outstanding and no response arrived within the configured call timeout.
// A blackholed peer (network partition) manifests as exactly this.
var ErrCallTimeout = errors.New("datalet: call timed out")

// call is one in-flight request/response exchange.
type call struct {
	req  *wire.Request
	resp *wire.Response
	// stream, when non-nil, consumes successive responses (Export): it
	// reports done=true to complete the call with err. A streamAbort err
	// additionally fails the connection (required when the consumer bails
	// mid-stream — the remaining frames can no longer be parsed away).
	stream func(resp *wire.Response) (done bool, err error)
	errc   chan error // buffered(1); delivers exactly one completion
	// inline marks a call its starter sent itself and means to read the
	// reply of; the reader leaves it alone while nothing is queued behind
	// it. Guarded by Client.mu.
	inline bool
}

// streamAbort marks a stream callback error as connection-fatal.
type streamAbort struct{ err error }

func (a streamAbort) Error() string { return a.err.Error() }

// Client is a pipelined, multiplexed connection to one datalet (or to any
// server speaking the wire protocol — controlets reuse it for peer
// forwarding). Any number of goroutines may issue requests concurrently;
// they share the connection with many requests in flight. Start and Wait
// split one call around work the caller overlaps with the hop; Do is the two
// back to back; a caller that fans out starts every frame, then waits on
// each.
type Client struct {
	conn  transport.Conn
	codec wire.Codec
	bcd   wire.BufferedCodec // nil if codec cannot defer flushes
	br    *bufio.Reader      // owned by whoever set readerBusy
	bw    *bufio.Writer      // owned by whoever set writerBusy
	seq   uint64             // request ID source (whoever holds bw)

	// mu guards the two queues and the sticky error. Callers append to
	// sendQ; the writer moves calls to respQ as it encodes them; the
	// reader pops respQ as responses arrive. Critical sections are tiny —
	// encoding, flushing and decoding all happen outside the lock.
	mu    sync.Mutex
	sendQ []*call
	respQ []*call
	err   error // sticky transport error
	// inline counts the calls whose caller sent the frame itself, summed
	// over every client at scrape time (bespokv_datalet_client_inline_total).
	inline int64
	// Buffer ownership. A goroutine that set one of these under mu may use
	// the buffer outside it: the writer for a batch, the reader for a
	// batch, and on the idle fast path the caller itself — Start holds bw
	// until its flush, Wait holds br while it reads its own reply. A lone
	// caller gets none of pipelining's overlap, so it should not pay for
	// its goroutine handoffs either.
	writerBusy bool
	readerBusy bool
	// lastBatch is the size of the writer's most recent batch — the
	// hysteresis for the fast path. Under concurrency the queues drain to
	// empty between rounds, so "idle right now" alone would route the
	// first caller of every round inline and serialize the rest behind
	// it; "and the last round was a lone caller" keeps a busy connection
	// pipelined. Lone-caller traffic drives it back to 1 within one op.
	lastBatch int
	sendReady sync.Cond // sendQ went non-empty, or failure (writer waits)
	respReady sync.Cond // respQ went non-empty, or failure (reader waits)
	sendSpace sync.Cond // sendQ below maxInflight, or failure (callers wait)
	respSpace sync.Cond // respQ below maxInflight, or failure (writer waits)

	// load counts queued + in-flight calls, the number Pool balances on. A
	// failed connection's load has failedLoad added to it (by the first
	// fail()), so it counts as busier than any live one: the one word a pick
	// reads anyway says both things, and a pick costs what it did before
	// connections could be skipped.
	load atomic.Int64
	wg   sync.WaitGroup

	// Pipeline watchdog (SetCallTimeout). FIFO pipelining cannot time out
	// one call and keep the rest: responses match requests by order, so a
	// lost response desynchronizes everything behind it. The watchdog
	// therefore monitors *progress* — if calls are outstanding and no
	// response frame arrives for a full timeout, the connection is failed
	// with ErrCallTimeout and every waiter is released. A started call
	// whose caller is busy elsewhere is not a stall: at the first poll
	// without progress the watchdog hands its reply to the reader.
	timeout  atomic.Int64 // nanoseconds; 0 = no watchdog
	progress atomic.Int64 // response frames decoded (stall detector)
	dogOnce  sync.Once
	dead     chan struct{} // closed by the first fail()
}

// Dial connects a client to addr over the given network and codec.
func Dial(network transport.Network, addr string, codec wire.Codec) (*Client, error) {
	conn, err := network.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:  conn,
		codec: codec,
		br:    bufio.NewReaderSize(conn, wire.ConnBufSize),
		bw:    bufio.NewWriterSize(conn, wire.ConnBufSize),
		dead:  make(chan struct{}),
	}
	c.bcd, _ = codec.(wire.BufferedCodec)
	c.sendReady.L = &c.mu
	c.respReady.L = &c.mu
	c.sendSpace.L = &c.mu
	c.respSpace.L = &c.mu
	c.wg.Add(2)
	registerClient(c)
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

// SetCallTimeout arms the pipeline watchdog: if requests are outstanding
// and no response arrives for d, the connection fails with ErrCallTimeout
// and every in-flight call completes with it. d <= 0 disarms. Without a
// timeout a partitioned (blackholed) peer hangs callers forever — and in
// the controlet, a hung chain forward holds the inflight read-lock, which
// wedges quiesce, drain and failover behind it.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.timeout.Store(int64(d))
	if d > 0 {
		c.dogOnce.Do(func() { go c.watchdog() })
	}
}

// watchdog fails the connection when the pipeline stops making progress.
func (c *Client) watchdog() {
	var last int64
	var stalled time.Time
	for {
		d := time.Duration(c.timeout.Load())
		poll := d / 4
		if d <= 0 {
			poll = 100 * time.Millisecond // disarmed; keep checking cheaply
		} else if poll < time.Millisecond {
			poll = time.Millisecond
		}
		select {
		case <-c.dead:
			return
		case <-time.After(poll):
		}
		if d <= 0 || c.load.Load() == 0 {
			stalled = time.Time{}
			continue
		}
		if p := c.progress.Load(); p != last {
			last, stalled = p, time.Time{}
			continue
		}
		if stalled.IsZero() {
			stalled = time.Now()
			c.mu.Lock()
			if len(c.respQ) > 0 && c.respQ[0].inline {
				c.respQ[0].inline = false
				c.respReady.Signal()
			}
			c.mu.Unlock()
			continue
		}
		if time.Since(stalled) >= d {
			c.fail(fmt.Errorf("%w (no response in %v)", ErrCallTimeout, d))
			return
		}
	}
}

// Pending is a call Start launched. Wait must be called on it exactly once.
type Pending struct {
	c      *Client
	cl     *call
	inline bool  // the caller sent the frame and may read the reply
	err    error // the call never left: Wait returns it
}

// Start sends req, or queues it for the writer, and returns at once; the
// reply lands in resp once Wait returns nil. Neither may be touched in
// between. On an idle connection the caller encodes and flushes the frame
// itself and, in Wait, reads the reply — no goroutine handoff on either
// side. The caller holds the send buffer only until its flush, and the
// reader takes the reply over when a call queued behind it needs the
// stream, so Waits on one connection complete in any order. Safe for
// concurrent use; concurrent callers pipeline onto the shared connection.
func (c *Client) Start(req *wire.Request, resp *wire.Response) Pending {
	c.mu.Lock()
	if c.err == nil && c.lastBatch <= 1 && !c.writerBusy && !c.readerBusy &&
		len(c.sendQ) == 0 && len(c.respQ) == 0 {
		cl := newCall(req, resp)
		cl.inline = true
		c.writerBusy = true
		c.seq++
		req.ID = c.seq
		c.respQ = append(c.respQ, cl)
		c.load.Add(1)
		c.inline++
		c.mu.Unlock()
		err := c.codec.WriteRequest(c.bw, req)
		c.mu.Lock()
		c.writerBusy = false
		kick := len(c.sendQ) > 0
		c.mu.Unlock()
		if err != nil {
			c.fail(err) // completes cl, which is in respQ
		} else if kick {
			c.sendReady.Signal()
		}
		return Pending{c: c, cl: cl, inline: true}
	}
	c.mu.Unlock()
	cl, err := c.submit(nil, req, resp)
	if err != nil {
		return Pending{err: err}
	}
	return Pending{c: c, cl: cl}
}

// Wait blocks until the call's reply is in resp or the connection failed.
func (p Pending) Wait() error {
	if p.cl == nil {
		return p.err
	}
	c, cl := p.c, p.cl
	if p.inline {
		c.mu.Lock()
		if cl.inline && len(c.respQ) > 0 && c.respQ[0] == cl {
			// Still first in line and unclaimed, so nobody holds br: an
			// inline start needs an idle reader, and the reader takes
			// respQ whole. Read the reply here.
			n := copy(c.respQ, c.respQ[1:])
			c.respQ[n] = nil
			c.respQ = c.respQ[:n]
			c.readerBusy = true
			c.mu.Unlock()
			err := c.readInline(cl)
			c.mu.Lock()
			c.readerBusy = false
			if len(c.respQ) > 0 {
				c.respReady.Signal()
			}
			c.mu.Unlock()
			recycle(cl)
			return err
		}
		c.mu.Unlock()
	}
	err := <-cl.errc
	recycle(cl)
	return err
}

// readInline decodes the reply of a call its waiter claimed from the head
// of respQ.
func (c *Client) readInline(cl *call) error {
	cl.resp.Reset()
	err := c.codec.ReadResponse(c.br, cl.resp)
	if err == nil {
		err = c.checkID(cl)
	}
	c.progress.Add(1)
	c.load.Add(-1)
	if err != nil {
		c.fail(err)
		return c.Err()
	}
	return nil
}

// Do sends req and decodes the reply into resp: Start, then Wait.
func (c *Client) Do(req *wire.Request, resp *wire.Response) error {
	return c.Start(req, resp).Wait()
}

// submit enqueues a call for the writer. Passing cl == nil draws one from
// the pool (the Start path, whose Wait provably drains the completion
// channel before recycling); Export passes its own streaming call. A nil
// error means the pipeline owns the call and will complete errc exactly
// once; otherwise nothing was sent.
func (c *Client) submit(cl *call, req *wire.Request, resp *wire.Response) (*call, error) {
	c.mu.Lock()
	for c.err == nil && len(c.sendQ) >= maxInflight {
		c.sendSpace.Wait()
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	if cl == nil {
		cl = newCall(req, resp)
	}
	c.sendQ = append(c.sendQ, cl)
	if len(c.sendQ) == 1 {
		c.sendReady.Signal()
	}
	c.mu.Unlock()
	c.load.Add(1)
	return cl, nil
}

// calls recycles calls and their completion channels. It is a process-wide
// pool, not a list under Client.mu: a Wait that recycles under mu contends
// with the writer and the reader, and with 16 callers fanning out on one
// connection (BenchmarkPipelinedWindow) that cost about a quarter of the
// throughput.
var calls = sync.Pool{New: func() any { return &call{errc: make(chan error, 1)} }}

// newCall draws a call from the pool.
func newCall(req *wire.Request, resp *wire.Response) *call {
	cl := calls.Get().(*call)
	cl.req, cl.resp = req, resp
	return cl
}

// recycle returns a call whose completion channel is drained, or was never
// used, to the pool.
func recycle(cl *call) {
	cl.req, cl.resp, cl.stream, cl.inline = nil, nil, nil, false
	calls.Put(cl)
}

// writeLoop drains the submission queue in batches: everything that
// accumulated while the previous batch was being encoded and flushed forms
// the next batch, so coalescing deepens exactly as fast as the connection
// falls behind its callers — one flush (one syscall) per batch, one per
// request only when the pipe is idle anyway.
func (c *Client) writeLoop() {
	defer c.wg.Done()
	var batch []*call
	c.mu.Lock()
	for {
		for c.err == nil && (c.writerBusy || len(c.sendQ) == 0 || len(c.respQ) >= maxInflight) {
			if c.writerBusy || len(c.sendQ) == 0 {
				// Also parks while an inline Start owns bw; its
				// flush signals sendReady.
				c.sendReady.Wait()
			} else {
				// The reader will drain respQ; all previous frames
				// are flushed (every iteration ends in a flush), so
				// responses are on their way.
				c.respSpace.Wait()
			}
		}
		if c.err != nil {
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		// The first submitter of a completion burst wakes us into the
		// scheduler's preferential (runnext) slot, ahead of its sibling
		// callers — grabbing the queue now would yield a batch of one,
		// every time. Yield once: the rest of the burst runs, submits,
		// and the batch forms. Costs one scheduler pass when the pipe
		// really is idle.
		runtime.Gosched()
		c.mu.Lock()
		if c.err != nil {
			c.mu.Unlock()
			return
		}
		if c.writerBusy || len(c.sendQ) == 0 {
			continue
		}
		// Take as much of sendQ as in-flight capacity allows. From here
		// until the flush lands, the writer owns bw.
		c.writerBusy = true
		n := maxInflight - len(c.respQ)
		if n > len(c.sendQ) {
			n = len(c.sendQ)
		}
		c.lastBatch = n
		cliBatches.Inc()
		cliBatchedReq.Add(int64(n))
		batch = append(batch[:0], c.sendQ[:n]...)
		rest := copy(c.sendQ, c.sendQ[n:])
		for i := rest; i < len(c.sendQ); i++ {
			c.sendQ[i] = nil
		}
		c.sendQ = c.sendQ[:rest]
		c.sendSpace.Broadcast()
		c.mu.Unlock()

		for _, cl := range batch {
			c.seq++
			cl.req.ID = c.seq
			if err := c.encode(cl.req); err != nil {
				// A partially encoded frame corrupts the stream for
				// everyone behind it; the connection cannot be saved.
				// fail() completes every queued call, including the
				// unencoded tail of this batch (fail drains the
				// queues, so first hand the whole batch to respQ).
				c.mu.Lock()
				c.respQ = append(c.respQ, batch...)
				c.mu.Unlock()
				c.fail(err)
				return
			}
		}
		// Expose the batch to the reader before flushing so it is
		// listening by the time the server can possibly answer.
		c.mu.Lock()
		if c.err != nil {
			c.respQ = append(c.respQ, batch...)
			c.mu.Unlock()
			c.fail(c.Err()) // re-enter to complete the batch
			return
		}
		c.respQ = append(c.respQ, batch...)
		c.respReady.Signal() // the reader may be parked behind an inline head
		c.mu.Unlock()
		if err := c.bw.Flush(); err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		c.writerBusy = false
	}
}

// encode writes req into the send buffer, deferring the flush when the
// codec supports it.
func (c *Client) encode(req *wire.Request) error {
	if c.bcd != nil {
		return c.bcd.EncodeRequest(c.bw, req)
	}
	return c.codec.WriteRequest(c.bw, req)
}

// readLoop decodes responses and hands them to waiters in FIFO order. It
// drains the in-flight queue a batch at a time and withholds completions
// until the whole batch has decoded: releasing the callers in one burst
// makes their next submissions arrive together, which is what lets the
// writer form deep batches (and flush once) instead of finding one request
// at a time. Holding decoded completions while blocking on the next frame
// is safe — every call in respQ is behind an already-issued flush, so its
// response is on the way.
func (c *Client) readLoop() {
	defer c.wg.Done()
	var batch, doneOK []*call
	c.mu.Lock()
	for {
		// An inline call alone at the head is its starter's to read; with
		// calls behind it, the reader reads it on the starter's behalf.
		for c.err == nil && (c.readerBusy || len(c.respQ) == 0 ||
			len(c.respQ) == 1 && c.respQ[0].inline) {
			c.respReady.Wait()
		}
		if c.err != nil {
			// fail() drained respQ, or will: a writer that finds the
			// error after queueing calls fails again to complete them.
			c.mu.Unlock()
			return
		}
		// Swap out the whole in-flight queue in one critical section.
		// From here until the batch is decoded, the reader owns br.
		c.readerBusy = true
		batch, c.respQ = c.respQ, batch[:0]
		c.respSpace.Broadcast()
		c.mu.Unlock()

		doneOK = doneOK[:0]
		for i, cl := range batch {
			if cl.stream != nil {
				// A stream can run long; release finished callers
				// before servicing it.
				doneOK = c.completeOK(doneOK)
				if !c.readStream(cl) {
					c.completeSticky(batch[i+1:])
					return
				}
				continue
			}
			cl.resp.Reset()
			if err := c.codec.ReadResponse(c.br, cl.resp); err != nil {
				c.fail(err)
				c.completeOK(doneOK)
				c.complete(cl, c.Err())
				c.completeSticky(batch[i+1:])
				return
			}
			if err := c.checkID(cl); err != nil {
				c.fail(err)
				c.completeOK(doneOK)
				c.complete(cl, err)
				c.completeSticky(batch[i+1:])
				return
			}
			doneOK = append(doneOK, cl)
		}
		doneOK = c.completeOK(doneOK)
		c.mu.Lock()
		c.readerBusy = false
	}
}

// completeOK releases calls whose responses decoded successfully and
// returns the emptied (reusable) slice.
func (c *Client) completeOK(calls []*call) []*call {
	for i, cl := range calls {
		calls[i] = nil
		c.complete(cl, nil)
	}
	return calls[:0]
}

// completeSticky fails calls the reader had already claimed from respQ when
// the connection died; fail() cannot see them, so the reader must.
func (c *Client) completeSticky(calls []*call) {
	err := c.Err()
	for _, cl := range calls {
		c.complete(cl, err)
	}
}

// readStream consumes responses for a streaming call (Export) until the
// callback reports completion. It reports whether the reader should
// continue with the next call.
func (c *Client) readStream(cl *call) bool {
	for {
		cl.resp.Reset()
		if err := c.codec.ReadResponse(c.br, cl.resp); err != nil {
			c.fail(err)
			c.complete(cl, c.Err())
			return false
		}
		c.progress.Add(1) // stream frames count as pipeline progress
		if err := c.checkID(cl); err != nil {
			c.fail(err)
			c.complete(cl, err)
			return false
		}
		done, err := cl.stream(cl.resp)
		if abort, ok := err.(streamAbort); ok {
			// The consumer bailed mid-stream; the tail of the stream
			// would desynchronize every caller behind it.
			c.fail(abort.err)
			c.complete(cl, abort.err)
			return false
		}
		if done {
			c.complete(cl, err)
			return true
		}
	}
}

// checkID verifies FIFO integrity: a binary-codec response must echo the
// request ID it is being matched to. The text codec carries no IDs (it
// decodes resp.ID as 0) and relies on FIFO alone, as Redis pipelining does.
func (c *Client) checkID(cl *call) error {
	if cl.resp.ID != 0 && cl.resp.ID != cl.req.ID {
		return fmt.Errorf("datalet: pipeline desync: response ID %d for request %d", cl.resp.ID, cl.req.ID)
	}
	cl.resp.ID = cl.req.ID
	return nil
}

func (c *Client) complete(cl *call, err error) {
	c.progress.Add(1)
	c.load.Add(-1)
	cl.errc <- err
}

// fail marks the connection dead with a sticky error, closes it, and
// completes every call still queued or awaiting a response. Idempotent;
// the first error wins.
func (c *Client) fail(err error) {
	c.mu.Lock()
	first := c.err == nil
	if first {
		c.err = err
		c.load.Add(failedLoad)
		close(c.dead)
		_ = c.conn.Close()
	}
	failed := append(c.respQ, c.sendQ...)
	c.respQ = nil
	c.sendQ = nil
	c.mu.Unlock()
	if first {
		unregisterClient(c)
	}
	c.sendReady.Broadcast()
	c.respReady.Broadcast()
	c.sendSpace.Broadcast()
	c.respSpace.Broadcast()
	stickyErr := c.Err()
	for _, cl := range failed {
		c.complete(cl, stickyErr)
	}
}

// Err returns the sticky transport error, or nil while the connection is
// healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Load reports the number of requests queued or in flight, the signal
// Pool.Get balances on.
func (c *Client) Load() int { return int(c.load.Load() &^ failedLoad) }

// Export streams every record of the table with version newer than since
// (0: all of it), calling fn with tombstone=true for deletions. The stream
// shares the pipelined connection: responses for requests submitted after
// the export simply queue behind the stream's frames.
func (c *Client) Export(table string, since uint64, fn func(kv wire.KV, tombstone bool) error) error {
	var scratch wire.Response
	cl := &call{
		req:  &wire.Request{Op: wire.OpExport, Table: table, Version: since},
		resp: &scratch,
		errc: make(chan error, 1),
	}
	cl.stream = func(resp *wire.Response) (bool, error) {
		switch {
		case resp.Status == wire.StatusOK && len(resp.Pairs) == 0:
			return true, nil // sentinel
		case resp.Status == wire.StatusOK, resp.Status == wire.StatusNotFound && len(resp.Pairs) > 0:
			tombstone := resp.Status == wire.StatusNotFound
			for i := range resp.Pairs {
				if err := fn(resp.Pairs[i], tombstone); err != nil {
					return true, streamAbort{err}
				}
			}
			return false, nil
		}
		// "no such table" (StatusNotFound without pairs) or a failed stream.
		if err := resp.ErrValue(); err != nil {
			return true, err
		}
		return true, fmt.Errorf("datalet: export %q: %s %s", table, resp.Status, resp.Err)
	}
	if _, err := c.submit(cl, cl.req, cl.resp); err != nil {
		return err
	}
	return <-cl.errc
}

// Ping round-trips an OpNop.
func (c *Client) Ping() error {
	var resp wire.Response
	if err := c.Do(&wire.Request{Op: wire.OpNop}, &resp); err != nil {
		return err
	}
	return resp.ErrValue()
}

// Close tears down the connection; in-flight calls fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	c.wg.Wait()
	return nil
}

// Pool is a fixed-size set of pipelined clients to one address. Get hands
// out the least-loaded connection that has not failed, so a long stream
// (Export) or a burst on one connection steers new work to the others while
// idle pools still funnel everything onto one pipe, where coalescing is
// best. A Pool never dials again: it is one generation of a Link, which
// does, and by itself the type of a connection set that must stay down once
// it failed (the controlet's local link).
type Pool struct {
	clients []*Client
}

// DialPool opens size connections to addr.
func DialPool(network transport.Network, addr string, codec wire.Codec, size int) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	p := &Pool{}
	for i := 0; i < size; i++ {
		c, err := Dial(network, addr, codec)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

// SetCallTimeout arms the pipeline watchdog on every pooled connection.
func (p *Pool) SetCallTimeout(d time.Duration) {
	for _, c := range p.clients {
		c.SetCallTimeout(d)
	}
}

// live returns the member with the fewest requests in flight among those
// whose connection has not failed (nil when none is left), and whether that
// is all of them. Without the check a failed member, which has no load of
// its own, would win every pick.
func (p *Pool) live() (best *Client, whole bool) {
	whole = true
	var bestLoad int64
	for _, c := range p.clients {
		l := c.load.Load()
		if l >= failedLoad/2 {
			whole = false
		} else if best == nil || l < bestLoad {
			best, bestLoad = c, l
		}
	}
	return best, whole
}

// Get returns the live pooled client with the fewest requests in flight;
// with none left, a failed one, whose calls return its sticky error.
func (p *Pool) Get() *Client {
	if c, _ := p.live(); c != nil {
		return c
	}
	return p.clients[0]
}

// Do dispatches one request on the least-loaded pooled connection.
func (p *Pool) Do(req *wire.Request, resp *wire.Response) error {
	return p.Start(req, resp).Wait()
}

// Start launches one request on the least-loaded pooled connection (see
// Client.Start).
func (p *Pool) Start(req *wire.Request, resp *wire.Response) Pending {
	return p.Get().Start(req, resp)
}

// Close closes every pooled connection.
func (p *Pool) Close() error {
	for _, c := range p.clients {
		_ = c.Close()
	}
	return nil
}

// Stats reports the pool's live connections and their summed outstanding
// load, surfaced by /statusz.
func (p *Pool) Stats() (conns, load int) {
	for _, c := range p.clients {
		if l := c.load.Load(); l < failedLoad/2 {
			conns++
			load += int(l)
		}
	}
	return
}
