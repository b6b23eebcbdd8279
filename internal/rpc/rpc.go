// Package rpc is the id-matched request/response layer over the transport
// abstraction that carries everything which is not a data-plane wire frame:
// coordinator, telemetry and RSM control traffic, and — on every AA+SC and
// AA+EC operation — the lock manager and the shared log. Those two sit on
// the per-request path, so the envelope is binary and the per-operation
// messages encode themselves (Wire); everything cold keeps encoding/json
// payloads and needs no code of its own.
//
// Frame layout (all integers little-endian, fixed width):
//
//	request:  len u32 | kind u8 | id u64 | T u64 | D u64 | mlen u8 | method | payload
//	response: len u32 | kind u8 | id u64 | payload
//
// len counts the bytes after itself and is at most maxFrame. id matches a
// response to its call, so many calls share one connection and complete in
// any order (a contended Lock or a long-poll Read never blocks the calls
// behind it). A request with id 0 is one-way (Client.Send): the server runs
// its handler and sends nothing back, whatever the outcome — calls number
// from 1. T is the trace id of a sampled request (0 = untraced), D the
// caller's remaining deadline budget in nanoseconds (0 = unbounded).
//
// kind says how the payload is encoded: kindNone (no payload, the frame ends
// at the header), kindJSON (encoding/json), kindWire (the message's own
// AppendWire form) or, in responses only, kindError (the error text,
// verbatim — callers match on it). The SENDER picks the kind from the value
// it was handed: a value implementing Wire goes out as kindWire, anything
// else as JSON. The receiver follows the frame: a kindWire payload needs a
// Wire target, a JSON payload decodes into any target (Wire types keep
// their json tags), so a Wire args / JSON reply mix and the reverse both
// work. There is one frame format and no negotiation — all binaries of a
// deployment come from one build.
//
// Why hot messages are Wire: with JSON envelopes a Lock or Append cost two
// nested Marshal/Unmarshal pairs per side, and encoding/json was a third of
// process CPU in the AA modes. Wire messages append into the frame buffer
// and parse out of it with no reflection and no intermediate copy.
//
// Invariant: every frame goes down in ONE Write. Transports that treat a
// Write as a message quantum (the faultnet fault plane drops, delays and
// duplicates whole Writes) must see frames, never torn halves.
//
// Dispatch. How a method is dispatched is fixed where it is registered.
// HandleFunc/Handle methods are concurrent: each call runs on its own
// goroutine, so calls on one connection start in no particular order and a
// handler may block. HandleOrdered methods are ordered: the handler is
// called on the connection's reader goroutine, so the ordered calls of one
// connection START in the order their frames arrived — a one-way Unlock
// sent before a Lock reaches the lease table before it. An ordered handler
// must not block; one that has to wait keeps its *Call and answers from a
// goroutine of its own, which is why completion is still id-matched and in
// any order.
package rpc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/trace"
	"bespokv/internal/transport"
)

const maxFrame = 16 << 20

// maxPooledBuf is the largest frame buffer kept for reuse; one oversized
// frame (a map push, an RSM snapshot) must not pin its buffer forever.
const maxPooledBuf = 64 << 10

// DefaultCallTimeout bounds Client.Call when Client.CallTimeout is unset.
// A response that never comes (server wedged, frame lost to a half-open
// connection) must fail the call, not hang it forever. The longest
// legitimate waits in-tree are the ~2s watch long-polls and DLM lock waits,
// so 10s is comfortably above any honest response time.
const DefaultCallTimeout = 10 * time.Second

// ErrCallTimeout is returned when a call's response did not arrive in time.
var ErrCallTimeout = errors.New("rpc: call timed out")

// ErrConnFailed wraps every transport-level failure of a Client: the error
// that ended its reader (for the calls pending then and for every call
// after), and a failed write. A caller that holds several addresses tests
// for it with errors.Is to tell "this connection is gone, dial again" from
// an error the server answered with, which another connection would only
// repeat. A call timeout is not one: the connection may be fine.
var ErrConnFailed = errors.New("rpc: connection failed")

func connFailed(err error) error { return fmt.Errorf("%w: %w", ErrConnFailed, err) }

var errFrameTooLarge = errors.New("rpc: frame too large")

// errDeadlineExpired is the server-side reply for a call whose budget was
// spent before its handler ran.
const errDeadlineExpired = "rpc: deadline expired"

// Payload kinds; see the package comment.
const (
	kindNone byte = iota
	kindJSON
	kindWire
	kindError
)

const (
	lenSize     = 4
	idOffset    = lenSize + 1       // where a request's id sits in its frame buffer
	reqHdrSize  = 1 + 8 + 8 + 8 + 1 // kind, id, T, D, mlen
	respHdrSize = 1 + 8             // kind, id
	maxMethod   = 255               // mlen is one byte
)

type request struct {
	kind    byte
	id      uint64
	tid     uint64 // T
	budget  uint64 // D
	method  []byte
	payload []byte
}

type response struct {
	kind    byte
	id      uint64
	payload []byte
}

// appendPayload encodes v after the frame header already in buf and
// returns the payload kind it chose.
func appendPayload(buf []byte, v any) ([]byte, byte, error) {
	switch m := v.(type) {
	case nil:
		return buf, kindNone, nil
	case Wire:
		return m.AppendWire(buf), kindWire, nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return buf, kindNone, err
	}
	return append(buf, raw...), kindJSON, nil
}

// decodePayload is the receiving half of appendPayload. A nil target
// discards the payload.
func decodePayload(kind byte, payload []byte, v any) error {
	if v == nil || kind == kindNone {
		return nil
	}
	if kind == kindJSON {
		return json.Unmarshal(payload, v)
	}
	w, ok := v.(Wire)
	if !ok {
		return fmt.Errorf("rpc: wire payload for non-Wire %T", v)
	}
	return w.ParseWire(payload)
}

// appendRequest starts a request frame in buf: length placeholder, header
// with a zero id and kindNone, method. The payload is appended behind it;
// finishFrame then stamps kind and length.
func appendRequest(buf []byte, tid, budget uint64, method string) ([]byte, error) {
	if len(method) > maxMethod {
		return buf, errors.New("rpc: method name too long")
	}
	buf = append(buf, 0, 0, 0, 0, kindNone)
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, tid)
	buf = binary.LittleEndian.AppendUint64(buf, budget)
	buf = append(buf, byte(len(method)))
	return append(buf, method...), nil
}

func appendResponse(buf []byte, id uint64) []byte {
	buf = append(buf, 0, 0, 0, 0, kindNone)
	return binary.LittleEndian.AppendUint64(buf, id)
}

// finishFrame stamps the payload kind and the length prefix of the frame
// that occupies all of buf.
func finishFrame(buf []byte, kind byte) error {
	if len(buf)-lenSize > maxFrame {
		return errFrameTooLarge
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-lenSize))
	buf[lenSize] = kind
	return nil
}

// readFrame reads one frame body (the bytes after the length prefix) into
// buf, growing it when needed.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := br.Peek(lenSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	_, _ = br.Discard(lenSize)
	if n > maxFrame {
		return buf, errFrameTooLarge
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err = io.ReadFull(br, buf)
	return buf, err
}

// checkKind rejects unknown payload kinds and a kindNone frame that carries
// bytes anyway (trailing garbage).
func checkKind(kind, max byte, payload []byte) error {
	if kind > max {
		return fmt.Errorf("rpc: bad payload kind %d", kind)
	}
	if kind == kindNone && len(payload) != 0 {
		return errors.New("rpc: trailing bytes after header")
	}
	return nil
}

// parseRequest decodes a request frame body. The result aliases frame.
func parseRequest(frame []byte) (request, error) {
	if len(frame) < reqHdrSize {
		return request{}, errors.New("rpc: short request frame")
	}
	r := request{
		kind:   frame[0],
		id:     binary.LittleEndian.Uint64(frame[1:]),
		tid:    binary.LittleEndian.Uint64(frame[9:]),
		budget: binary.LittleEndian.Uint64(frame[17:]),
	}
	mlen := int(frame[reqHdrSize-1])
	if len(frame) < reqHdrSize+mlen {
		return request{}, errors.New("rpc: short request frame")
	}
	r.method = frame[reqHdrSize : reqHdrSize+mlen]
	r.payload = frame[reqHdrSize+mlen:]
	return r, checkKind(r.kind, kindWire, r.payload)
}

// parseResponse decodes a response frame body. The result aliases frame.
func parseResponse(frame []byte) (response, error) {
	if len(frame) < respHdrSize {
		return response{}, errors.New("rpc: short response frame")
	}
	r := response{
		kind:    frame[0],
		id:      binary.LittleEndian.Uint64(frame[1:]),
		payload: frame[respHdrSize:],
	}
	return r, checkKind(r.kind, kindError, r.payload)
}

// Handler processes one call. args is the raw JSON argument; the returned
// value is marshaled as the result.
type Handler func(args json.RawMessage) (any, error)

// method is one registered handler plus what is derived from its name once
// instead of per call. Exactly one of fn (concurrent dispatch) and ordered
// is set.
type method struct {
	span    string // trace stage, "rpc.<name>"
	fn      func(c *Call) (any, error)
	ordered func(c *Call)
}

// Server dispatches calls to registered handlers.
type Server struct {
	// Name identifies this server in trace spans (e.g. "coordinator",
	// "dlm"); set it before Serve. Empty renders as "rpc".
	Name string

	mu       sync.RWMutex
	handlers map[string]*method

	srv *transport.Server // listeners, connections and their reader goroutines
	// calls counts the goroutines of concurrent handlers. A reader adds to it
	// and Close waits for it only after srv.Close has waited for every
	// reader, so an Add never races the Wait.
	calls sync.WaitGroup
}

func (s *Server) traceName() string {
	if s.Name != "" {
		return s.Name
	}
	return "rpc"
}

// NewServer returns a server with no handlers bound.
func NewServer() *Server {
	return &Server{handlers: map[string]*method{}, srv: transport.NewServer()}
}

func (s *Server) handle(name string, m *method) {
	if len(name) > maxMethod {
		panic("rpc: method name too long: " + name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[name]; dup {
		panic("rpc: duplicate method " + name)
	}
	m.span = "rpc." + name
	s.handlers[name] = m
}

// Handle registers fn under method; it panics on duplicates (init-time
// bug). A raw handler sees JSON only; its args alias the request frame and
// are valid until it returns.
func (s *Server) Handle(name string, fn Handler) {
	s.handle(name, &method{fn: func(c *Call) (any, error) {
		if c.req.kind == kindWire {
			return nil, fmt.Errorf("rpc: %s takes JSON args", name)
		}
		return fn(json.RawMessage(c.req.payload))
	}})
}

// HandleOrdered registers fn as an ordered handler (see the package
// comment): it is called on the connection's reader goroutine, in frame
// arrival order, with no goroutine of its own — so it must not block. fn
// answers with c.Reply exactly once, before it returns or later from
// another goroutine; the frames behind a call that answers later are
// dispatched meanwhile.
func (s *Server) HandleOrdered(name string, fn func(c *Call)) {
	s.handle(name, &method{ordered: fn})
}

// HandleFunc registers a typed handler: fn's argument is decoded from the
// request payload (ParseWire when the caller sent a Wire message, JSON
// otherwise) and its result encoded the same way. A struct{} result is
// sent as no payload at all.
func HandleFunc[A any, R any](s *Server, name string, fn func(A) (R, error)) {
	_, noReply := any(*new(R)).(struct{})
	s.handle(name, &method{fn: func(c *Call) (any, error) {
		var args A
		if err := c.Args(&args); err != nil {
			return nil, err
		}
		r, err := fn(args)
		if err != nil || noReply {
			return nil, err
		}
		return &r, nil
	}})
}

// Serve starts listening on network/addr and returns immediately.
func (s *Server) Serve(network transport.Network, addr string) (string, error) {
	l, err := network.Listen(addr)
	if err != nil {
		return "", err
	}
	s.ServeListener(l)
	return l.Addr(), nil
}

// ServeListener serves the connections l accepts, from now on; the ones
// that arrived earlier wait in its backlog. A service that needs its bound
// address before it can take a call listens, readies itself, then serves.
func (s *Server) ServeListener(l transport.Listener) {
	s.srv.Serve(l, func(err error) {
		rpcAcceptErrs.Inc()
		log.Printf("rpc: accept on %s: %v", l.Addr(), err)
	}, s.serveConn)
}

// Conns returns the number of live connections, for /statusz.
func (s *Server) Conns() int { return s.srv.Conns() }

// serverConn is the write half of one accepted connection, shared by
// whoever answers on it: the reader (ordered handlers that reply at once),
// concurrent handler goroutines, and goroutines an ordered handler parked
// its call on.
type serverConn struct {
	s       *Server
	conn    transport.Conn
	writeMu sync.Mutex
}

// Call is one request at the server, the handle an ordered handler reads
// its arguments from and answers through. It is pooled with its two frame
// buffers: in holds the request — arguments may alias it until Reply — and
// out the response. Reply recycles the Call; nothing may touch it after.
type Call struct {
	sc   *serverConn
	run  func() // c.serve, bound once so `go c.run()` allocates no closure
	m    *method
	req  request
	recv time.Time // set for concurrent and for traced calls only
	in   []byte
	out  []byte
}

var callPool sync.Pool // of *Call

func newCall() *Call {
	if c, ok := callPool.Get().(*Call); ok {
		return c
	}
	c := &Call{}
	c.run = c.serve
	return c
}

func (c *Call) release() {
	if cap(c.in) > maxPooledBuf {
		c.in = nil
	}
	if cap(c.out) > maxPooledBuf {
		c.out = nil
	}
	c.sc, c.m, c.req = nil, nil, request{}
	callPool.Put(c)
}

func (s *Server) serveConn(conn transport.Conn) {
	sc := &serverConn{s: s, conn: conn}
	br := bufio.NewReader(conn)
	for {
		c := newCall()
		var err error
		if c.in, err = readFrame(br, c.in[:0]); err == nil {
			c.req, err = parseRequest(c.in)
		}
		if err != nil {
			c.release()
			return
		}
		c.sc = sc
		s.mu.RLock()
		c.m = s.handlers[string(c.req.method)]
		s.mu.RUnlock()
		if c.m != nil && c.m.ordered != nil {
			// Ordered: the handler starts here, in arrival order. It does
			// not block, and it owns c from now on.
			if c.req.tid != 0 {
				c.recv = time.Now()
			}
			c.m.ordered(c)
			continue
		}
		// Dispatch concurrently so slow handlers (watch long-polls, raft
		// appends) don't block the connection. Each dispatched handler holds
		// a WaitGroup slot so Close waits for it instead of racing its
		// teardown.
		c.recv = time.Now()
		s.calls.Add(1)
		go c.run()
	}
}

// appendResult builds the response frame for a handler's outcome in buf.
func appendResult(buf []byte, id uint64, result any, err error) []byte {
	hdr := appendResponse(buf, id)
	if err == nil {
		out, kind, merr := appendPayload(hdr, result)
		if merr != nil {
			err = errors.New("rpc: marshal result: " + merr.Error())
		} else if err = finishFrame(out, kind); err == nil {
			return out
		}
	}
	out := append(hdr, err.Error()...)
	_ = finishFrame(out, kindError)
	return out
}

// serve runs a concurrent handler on its own goroutine.
func (c *Call) serve() {
	s, req := c.sc.s, c.req
	defer s.calls.Done()
	var result any
	var err error
	switch {
	case c.m == nil:
		err = errors.New("rpc: unknown method " + string(req.method))
	case req.budget != 0 && time.Since(c.recv) > time.Duration(req.budget):
		// The caller's budget ran out between receive and dispatch
		// (handler goroutines starved under load); the caller has already
		// timed out, so the work is doomed.
		rpcDeadlineExpired.Inc()
		err = errors.New(errDeadlineExpired)
	default:
		result, err = c.m.fn(c)
	}
	c.Reply(result, err)
}

// Args decodes the call's arguments into v: ParseWire when the caller sent
// a Wire message, JSON otherwise. What v aliases of the request frame stays
// valid until Reply.
func (c *Call) Args(v any) error {
	if err := decodePayload(c.req.kind, c.req.payload, v); err != nil {
		return fmt.Errorf("rpc: bad args for %s: %w", c.req.method, err)
	}
	return nil
}

// WireArgs returns the arguments as the caller's Wire encoding, for a
// handler that parses them in place (Args makes its target escape to the
// heap). It fails for a caller that sent JSON. The bytes are valid until
// Reply.
func (c *Call) WireArgs() ([]byte, error) {
	if c.req.kind != kindWire {
		return nil, fmt.Errorf("rpc: %s takes Wire args", c.req.method)
	}
	return c.req.payload, nil
}

// OneWay reports whether the caller used Send: nobody is waiting for the
// outcome, and Reply will only recycle the Call.
func (c *Call) OneWay() bool { return c.req.id == 0 }

// Scratch lends the buffer Reply will write the response into, empty and
// with room for n bytes, to a handler that needs one only until it replies.
func (c *Call) Scratch(n int) []byte {
	if cap(c.out) < n {
		c.out = make([]byte, 0, n)
	}
	return c.out[:0]
}

// Reply answers the call, exactly once, from any goroutine. It always
// answers a caller that waits: a result that cannot be encoded becomes an
// error frame, never silence the caller would sit out its whole timeout on.
func (c *Call) Reply(result any, err error) {
	if !c.OneWay() {
		c.out = appendResult(c.out[:0], c.req.id, result, err)
		c.sc.writeMu.Lock()
		_, _ = c.sc.conn.Write(c.out)
		c.sc.writeMu.Unlock()
	}
	if c.req.tid != 0 {
		span := "rpc." + string(c.req.method)
		if c.m != nil {
			span = c.m.span
		}
		trace.Record(c.req.tid, c.sc.s.traceName(), span, c.recv, time.Since(c.recv), "")
	}
	c.release()
}

// Close stops the listeners and all connections, and waits for the readers
// and then for the handlers they started.
func (s *Server) Close() error {
	_ = s.srv.Close()
	s.calls.Wait()
	return nil
}

// Client is a concurrent-safe RPC client over one connection.
type Client struct {
	conn    transport.Conn
	writeMu sync.Mutex

	// CallTimeout bounds each Call's wait for its response; zero or
	// negative disables the bound. Set before the first Call.
	CallTimeout time.Duration

	mu      sync.Mutex
	pending map[uint64]*clientCall
	nextID  uint64
	err     error
}

// clientCall is one in-flight call, pooled with its frame buffer,
// completion channel and timer. The read loop decodes the response straight
// into reply and then sends the outcome on done; whoever removes the call
// from Client.pending owns completing it, so done carries exactly one value
// per registered call or, when the caller itself removed it, none.
type clientCall struct {
	reply any
	done  chan error
	timer *time.Timer
	buf   []byte
}

var clientCallPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &clientCall{done: make(chan error, 1), timer: t}
}}

func (cs *clientCall) release() {
	if cap(cs.buf) > maxPooledBuf {
		cs.buf = nil
	}
	cs.reply = nil
	clientCallPool.Put(cs)
}

// DialClient connects to an rpc.Server with the default call timeout.
func DialClient(network transport.Network, addr string) (*Client, error) {
	conn, err := network.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:        conn,
		CallTimeout: DefaultCallTimeout,
		pending:     map[uint64]*clientCall{},
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	br := bufio.NewReader(c.conn)
	var buf []byte
	for {
		var resp response
		var err error
		if buf, err = readFrame(br, buf[:0]); err == nil {
			resp, err = parseResponse(buf)
		}
		if err != nil {
			c.failAll(err)
			return
		}
		if cs := c.take(resp.id); cs != nil {
			if resp.kind == kindError {
				err = errors.New(string(resp.payload))
			} else {
				err = decodePayload(resp.kind, resp.payload, cs.reply)
			}
			cs.done <- err
		}
		if cap(buf) > maxPooledBuf {
			buf = nil
		}
	}
}

// take removes and returns the pending call id, nil when it is gone (timed
// out and forgotten, or failed).
func (c *Client) take(id uint64) *clientCall {
	c.mu.Lock()
	cs := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return cs
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = connFailed(err)
	}
	for id, cs := range c.pending {
		delete(c.pending, id)
		cs.done <- c.err
	}
}

// Call metrics. The per-method counters are resolved through the labeled
// registry once per method and cached: Lock/Append calls are per-operation
// in the AA modes, and the registry lookup renders a key string every time.
var (
	rpcCallSeconds = metrics.Default.Histogram("bespokv_rpc_call_seconds")
	rpcTimeouts    = metrics.Default.Counter("bespokv_rpc_call_timeouts_total")
	// Accept errors other than the listener closing; the loop retries them.
	rpcAcceptErrs = metrics.Default.Counter("bespokv_rpc_accept_errors_total")

	// Calls whose propagated budget was spent before dispatch (see D).
	rpcDeadlineExpired = metrics.Default.Counter("bespokv_deadline_expired_total", "layer", "rpc")

	methodStatsMu sync.RWMutex
	methodStats   = map[string]*callStats{}
)

type callStats struct{ calls, errors *metrics.Counter }

func statsFor(method string) *callStats {
	methodStatsMu.RLock()
	st := methodStats[method]
	methodStatsMu.RUnlock()
	if st != nil {
		return st
	}
	methodStatsMu.Lock()
	defer methodStatsMu.Unlock()
	if st = methodStats[method]; st == nil {
		st = &callStats{
			calls:  metrics.Default.Counter("bespokv_rpc_calls_total", "method", method),
			errors: metrics.Default.Counter("bespokv_rpc_call_errors_total", "method", method),
		}
		methodStats[method] = st
	}
	return st
}

// Call invokes method with args, decoding the result into reply (which may
// be nil to discard it). It waits at most c.CallTimeout.
func (c *Client) Call(method string, args any, reply any) error {
	return c.CallTimeoutTraced(0, method, args, reply, c.CallTimeout)
}

// CallTimeoutTraced is Call with an explicit response deadline — for the
// long-poll-style methods (a DLM lock wait, a log read) whose honest
// response time exceeds the connection's default; timeout <= 0 waits
// forever — carrying the trace ID of a sampled request (0: none), for which
// the server records an "rpc.<method>" span.
func (c *Client) CallTimeoutTraced(tid uint64, method string, args, reply any, timeout time.Duration) error {
	start := time.Now()
	cs := clientCallPool.Get().(*clientCall)
	err := c.roundTrip(cs, start, tid, method, args, reply, timeout)
	cs.release()
	rpcCallSeconds.Observe(time.Since(start))
	st := statsFor(method)
	st.calls.Inc()
	if err != nil {
		st.errors.Inc()
		if errors.Is(err, ErrCallTimeout) {
			rpcTimeouts.Inc()
		}
	}
	return err
}

// Send writes a one-way request: the server runs method's handler and
// never answers, so there is no pending slot, timer or channel, and Send
// returns as soon as the frame is written. A nil error means only that —
// whether the handler ran, and how it fared, is not reported (an unknown
// method is dropped in silence). What the caller does get is order: a
// frame sent before another on this connection arrives before it, and
// ordered handlers (Server.HandleOrdered) start in arrival order.
func (c *Client) Send(method string, args any) error {
	cs := clientCallPool.Get().(*clientCall)
	defer cs.release()
	buf, err := cs.encode(0, 0, method, args)
	if err != nil {
		return err
	}
	c.mu.Lock()
	err = c.err
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.writeMu.Lock()
	_, err = c.conn.Write(buf) // the id stays 0: one-way
	c.writeMu.Unlock()
	st := statsFor(method)
	st.calls.Inc()
	if err != nil {
		st.errors.Inc()
		return connFailed(err)
	}
	return nil
}

// encode builds the request frame, id still zero, in cs's buffer.
func (cs *clientCall) encode(tid, budget uint64, method string, args any) ([]byte, error) {
	buf, err := appendRequest(cs.buf[:0], tid, budget, method)
	if err != nil {
		return nil, err
	}
	var kind byte
	if buf, kind, err = appendPayload(buf, args); err != nil {
		return nil, err
	}
	cs.buf = buf
	return buf, finishFrame(buf, kind)
}

// roundTrip sends one request and waits for its outcome. On return nothing
// references cs any more: either its done value was received or the call
// left c.pending by this goroutine's own hand.
func (c *Client) roundTrip(cs *clientCall, start time.Time, tid uint64, method string, args, reply any, timeout time.Duration) error {
	// The call timeout doubles as the propagated deadline budget: a server
	// too backlogged to dispatch before it lapses answers cheaply instead
	// of running a handler nobody is waiting for.
	var budget uint64
	if timeout > 0 {
		budget = uint64(timeout)
	}
	// Encode before registering, so a value that cannot be marshaled
	// leaves no pending slot behind.
	buf, err := cs.encode(tid, budget, method, args)
	if err != nil {
		return err
	}

	cs.reply = reply
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = cs
	c.mu.Unlock()
	binary.LittleEndian.PutUint64(buf[idOffset:], id)

	c.writeMu.Lock()
	_, err = c.conn.Write(buf)
	c.writeMu.Unlock()
	if err != nil {
		if c.take(id) == nil {
			<-cs.done // failAll took it first; its value is on the way
		}
		return connFailed(err)
	}
	if timeout <= 0 {
		return <-cs.done
	}
	cs.timer.Reset(timeout)
	defer cs.timer.Stop()
	for {
		select {
		case err := <-cs.done:
			return err
		case <-cs.timer.C:
			if time.Since(start) < timeout {
				// A tick left in the pooled timer's channel by an
				// earlier call that completed just as it fired.
				continue
			}
			// Forget the call so a late response is discarded. If the
			// read loop has already taken it, the response is being
			// decoded into reply right now: wait the moment it takes
			// rather than return while reply is still written to.
			if c.take(id) == nil {
				return <-cs.done
			}
			return fmt.Errorf("%w: %s after %v", ErrCallTimeout, method, timeout)
		}
	}
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error {
	return c.conn.Close()
}
