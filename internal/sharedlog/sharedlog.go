// Package sharedlog is a totally ordered append-only log service — the
// reproduction's stand-in for the paper's ZLog/CORFU shared log. The AA+EC
// controlet appends every write here first, and all replicas apply entries
// in log order, which is how bespoKV resolves concurrent multi-master
// writes that Dynomite cannot (§C of the paper).
//
// The design keeps CORFU's split between a sequencer (offset assignment)
// and storage (segmented entry store), collapsed into one process; readers
// long-poll so propagation latency is one RPC, not a poll interval.
package sharedlog

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/rpc"
	"bespokv/internal/rsm"
	"bespokv/internal/transport"
)

// Append/read traffic counters; the tail gauge lets dashboards derive
// replication lag as tail minus each controlet's applied offset.
var (
	logAppends       = metrics.Default.Counter("bespokv_sharedlog_appends_total")
	logEntriesTotal  = metrics.Default.Counter("bespokv_sharedlog_entries_total")
	logReads         = metrics.Default.Counter("bespokv_sharedlog_reads_total")
	logEntriesServed = metrics.Default.Counter("bespokv_sharedlog_entries_served_total")
	logTail          = metrics.Default.Gauge("bespokv_sharedlog_tail")
	logOldest        = metrics.Default.Gauge("bespokv_sharedlog_oldest")
)

// Entry is one ordered log record.
type Entry struct {
	// Offset is the global sequence number.
	Offset uint64 `json:"o"`
	// Data is the opaque payload ([]byte marshals as base64 in JSON).
	Data []byte `json:"d"`
}

// Config configures a log server.
type Config struct {
	Network transport.Network
	Addr    string
	// SegmentEntries is the per-segment capacity before a new segment
	// starts (default 4096). A stream keeps its last RetainSegments
	// segments, so this also sizes the history a reader may fall behind by.
	SegmentEntries int
	// Replication makes this server one member of a sequencer group, which
	// replicates the sequencer counters and the entries they order: appends
	// commit through the leader (followers redirect with NotLeader), reads
	// and long-polls serve anywhere from locally applied state. Nil is a
	// group of one at Addr.
	Replication *rsm.GroupConfig
	Logf        func(format string, args ...any)
}

// maxSegmentBytes starts a new segment early when entries are large, so an
// arena position always fits the uint32 ends table (an entry is at most one
// rpc frame, 16 MiB).
const maxSegmentBytes = 1 << 30

// maxReadBytes caps the entry bytes of one Read reply, well inside an rpc
// frame: a reader behind a run of large entries takes them in several
// Reads. A reply always carries at least one entry.
const maxReadBytes = 4 << 20

// RetainSegments is how many of its most recent segments a stream keeps;
// an append that starts one more drops the oldest. The log is a
// replication channel, not the store of record — every record below a
// replica's cursor is in that replica's datalet — so history only has to
// cover how far a live reader may lag (RetainSegments × SegmentEntries
// records, ≈ 32 k by default); a reader further behind catches up from a
// peer's data (ReadReply.Oldest). It is a constant because trimming is part
// of the replicated append: every member of a sequencer group must drop the
// same segments at the same offsets.
const RetainSegments = 8

// segment is an arena: entries lie back to back in data, entry i (offset
// base+i) ending at ends[i]. One allocation per segment growth instead of
// one []byte plus one Entry header per record.
type segment struct {
	base uint64
	data []byte
	ends []uint32
}

func (g *segment) count() int { return len(g.ends) }

// entry returns record i. The slice aliases the arena (capacity clipped);
// arena bytes are never rewritten, so it stays valid after the lock drops.
func (g *segment) entry(i int) Entry {
	start := uint32(0)
	if i > 0 {
		start = g.ends[i-1]
	}
	end := g.ends[i]
	return Entry{Offset: g.base + uint64(i), Data: g.data[start:end:end]}
}

// logState is one independent stream's segments and sequencer. Streams
// are CORFU-style: one server multiplexes many totally ordered logs (the
// controlets use one stream per shard), which is the paper's noted path
// for scaling the shared log with the cluster.
type logState struct {
	segs    []*segment
	next    uint64 // sequencer: next offset to assign
	trimmed uint64 // offsets below this are gone
	tailCh  chan struct{}
}

// Server is a running shared log.
type Server struct {
	cfg  Config
	rpc  *rpc.Server
	addr string
	node *rsm.Node

	mu      sync.Mutex
	streams map[string]*logState
	stopCh  chan struct{}
	stopped bool
	wg      sync.WaitGroup // replicated appends waiting for their commit
}

// AppendArgs appends a batch atomically (contiguous offsets). AppendArgs,
// AppendReply, ReadArgs and ReadReply travel as rpc.Wire messages (wire.go);
// the server takes an Append in no other form, since its Wire payload is the
// sequencer's replicated command. The json tags serve Read and Tail callers
// that send JSON.
type AppendArgs struct {
	// Stream selects an independent log ("" is the default stream).
	Stream  string   `json:"stream,omitempty"`
	Entries [][]byte `json:"entries"`
}

// AppendReply returns the offset of the first appended entry.
type AppendReply struct {
	First uint64 `json:"first"`
	Next  uint64 `json:"next"`
}

// ReadArgs fetches entries at offsets >= From, up to Max, long-polling up
// to WaitMs when the log has nothing newer.
type ReadArgs struct {
	Stream string `json:"stream,omitempty"`
	From   uint64 `json:"from"`
	Max    int    `json:"max,omitempty"`
	WaitMs int    `json:"wait_ms,omitempty"`
}

// ReadReply carries the entries and the next offset to read from. A read
// from below the stream's retention floor gets no entries and Oldest, the
// oldest offset still retained: the reader restarts there (or, a replica,
// from a peer's state).
type ReadReply struct {
	Entries []Entry `json:"entries,omitempty"`
	Next    uint64  `json:"next"`
	Oldest  uint64  `json:"oldest,omitempty"`
}

// TrimmedError is what Client.Read returns for an offset the stream no
// longer retains.
type TrimmedError struct {
	From, Oldest uint64
}

func (e *TrimmedError) Error() string {
	return fmt.Sprintf("sharedlog: offset %d trimmed (oldest available %d)", e.From, e.Oldest)
}

// TailArgs names the stream to inspect.
type TailArgs struct {
	Stream string `json:"stream,omitempty"`
}

// TailReply reports the next offset the sequencer will assign.
type TailReply struct {
	Next uint64 `json:"next"`
}

// Serve starts a shared log server.
func Serve(cfg Config) (*Server, error) {
	if cfg.Network == nil {
		return nil, errors.New("sharedlog: Network is required")
	}
	if cfg.SegmentEntries <= 0 {
		cfg.SegmentEntries = 4096
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:     cfg,
		rpc:     rpc.NewServer(),
		streams: map[string]*logState{},
		stopCh:  make(chan struct{}),
	}
	s.rpc.Name = "sharedlog"
	// Ordered: one connection's appends are sequenced in the order it sent
	// them, and a group of one answers each before the next frame is read.
	s.rpc.HandleOrdered("Append", s.serveAppend)
	rpc.HandleFunc(s.rpc, "Read", s.handleRead)
	rpc.HandleFunc(s.rpc, "Tail", s.handleTail)
	l, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.addr = l.Addr()
	if s.node, err = rsm.StartGroup(cfg.Replication, s.addr, s.rpc, cfg.Network, logSM{s}, nil, cfg.Logf); err != nil {
		l.Close()
		return nil, err
	}
	s.rpc.ServeListener(l) // calls find the node in place
	return s, nil
}

// Addr returns the server's RPC address.
func (s *Server) Addr() string { return s.addr }

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	close(s.stopCh)
	s.mu.Unlock()
	s.node.Close()
	err := s.rpc.Close()
	s.wg.Wait()
	return err
}

// IsLeader reports whether this member currently accepts appends.
func (s *Server) IsLeader() bool { return s.node.IsLeader() }

// streamLocked returns (creating if needed) the named stream. Caller holds
// mu.
func (s *Server) streamLocked(name []byte) *logState {
	st, ok := s.streams[string(name)]
	if !ok {
		st = &logState{tailCh: make(chan struct{})}
		s.streams[string(name)] = st
	}
	return st
}

// serveAppend runs on the connection's reader, which puts the batch in the
// sequencer's log in arrival order: the command is the call's own Wire
// payload, read in place. A group of one has sequenced and stored the
// batch by then and answers here; a larger group waits for the commit on a
// goroutine of its own.
func (s *Server) serveAppend(c *rpc.Call) {
	cmd, err := c.WireArgs()
	if err == nil {
		err = checkAppend(cmd)
	}
	var p rsm.Proposal
	if err == nil {
		p, err = s.node.Submit(cmd)
	}
	if err != nil || p.Applied() {
		answerAppend(c, p, err)
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		answerAppend(c, p, nil)
	}()
}

// answerAppend replies to an Append with its submission's outcome.
func answerAppend(c *rpc.Call, p rsm.Proposal, err error) {
	var res any
	if err == nil {
		res, err = p.Wait(proposeTimeout)
	}
	if reply, ok := res.(*AppendReply); ok {
		c.Reply(reply, nil)
		return
	}
	if err == nil {
		err = errors.New("sharedlog: append not applied")
	}
	c.Reply(nil, err)
}

// applyAppendLocked assigns offsets from the stream's sequencer counter and
// stores the n entries r is at — on every member, in commit order. Entries
// are copied into the arena (they alias the log entry). Caller holds mu.
func (s *Server) applyAppendLocked(stream []byte, r rpc.WireReader, n int) *AppendReply {
	st := s.streamLocked(stream)
	first := st.next
	for ; n > 0; n-- {
		s.storeLocked(st, st.next, r.Bytes())
		st.next++
	}
	if drop := len(st.segs) - RetainSegments; drop > 0 {
		kept := copy(st.segs, st.segs[drop:])
		clear(st.segs[kept:])
		st.segs = st.segs[:kept]
		st.trimmed = st.segs[0].base
	}
	close(st.tailCh)
	st.tailCh = make(chan struct{})
	logAppends.Inc()
	logEntriesTotal.Add(int64(st.next - first))
	logTail.Set(int64(st.next))
	logOldest.Set(int64(st.trimmed))
	return &AppendReply{First: first, Next: st.next}
}

// storeLocked copies one record into the stream's last segment, starting a
// new one when that is full (or absent, or not contiguous with offset — a
// restore may resume above a trimmed gap). Caller holds mu.
func (s *Server) storeLocked(st *logState, offset uint64, data []byte) {
	var seg *segment
	if n := len(st.segs); n > 0 {
		seg = st.segs[n-1]
	}
	if seg == nil || seg.count() >= s.cfg.SegmentEntries || seg.base+uint64(seg.count()) != offset ||
		(seg.count() > 0 && len(seg.data)+len(data) > maxSegmentBytes) {
		next := &segment{base: offset, ends: make([]uint32, 0, min(s.cfg.SegmentEntries, 4096))}
		if seg != nil {
			// Size the new arena like the one just filled.
			next.data = make([]byte, 0, len(seg.data))
		}
		seg = next
		st.segs = append(st.segs, seg)
	}
	seg.data = append(seg.data, data...)
	seg.ends = append(seg.ends, uint32(len(seg.data)))
}

func (s *Server) handleRead(args ReadArgs) (ReadReply, error) {
	max := args.Max
	if max <= 0 {
		max = 1024
	}
	var deadline <-chan time.Time
	if args.WaitMs > 0 {
		t := time.NewTimer(time.Duration(args.WaitMs) * time.Millisecond)
		defer t.Stop()
		deadline = t.C
	}
	for {
		s.mu.Lock()
		st := s.streamLocked([]byte(args.Stream))
		if args.From < st.trimmed {
			reply := ReadReply{Next: args.From, Oldest: st.trimmed}
			s.mu.Unlock()
			return reply, nil
		}
		if args.From < st.next {
			n := st.next - args.From
			if n > uint64(max) {
				n = uint64(max)
			}
			reply := ReadReply{Entries: make([]Entry, 0, n)}
			size := 0
			for _, seg := range st.segs {
				if seg.base+uint64(seg.count()) <= args.From {
					continue
				}
				i := 0
				if args.From > seg.base {
					i = int(args.From - seg.base)
				}
				for ; i < seg.count() && len(reply.Entries) < int(n) && size < maxReadBytes; i++ {
					e := seg.entry(i)
					if len(reply.Entries) > 0 && size+len(e.Data) > maxReadBytes {
						size = maxReadBytes // the next Read starts here
						break
					}
					size += len(e.Data)
					reply.Entries = append(reply.Entries, e)
				}
				if len(reply.Entries) >= int(n) || size >= maxReadBytes {
					break
				}
			}
			reply.Next = args.From + uint64(len(reply.Entries))
			s.mu.Unlock()
			logReads.Inc()
			logEntriesServed.Add(int64(len(reply.Entries)))
			return reply, nil
		}
		ch := st.tailCh
		s.mu.Unlock()
		if deadline == nil {
			return ReadReply{Next: args.From}, nil
		}
		select {
		case <-ch:
		case <-deadline:
			return ReadReply{Next: args.From}, nil
		case <-s.stopCh:
			return ReadReply{}, errors.New("sharedlog: shutting down")
		}
	}
}

func (s *Server) handleTail(args TailArgs) (TailReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return TailReply{Next: s.streamLocked([]byte(args.Stream)).next}, nil
}

// Client is the shared log's typed method set over an rsm.Client, which
// finds and follows the sequencer's leader, so appenders survive its
// failovers transparently. A Client is bound to one stream (the zero-value
// default stream unless Stream is used).
type Client struct {
	rc     *rsm.Client
	stream string
}

// DialClient connects to a shared log server (default stream). addr may be
// a single address or a comma-separated member list.
func DialClient(network transport.Network, addr string) (*Client, error) {
	rc, err := rsm.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &Client{rc: rc}, nil
}

// Stream returns a view of this connection bound to the named stream.
// Views share the underlying connection; Close on any of them closes it.
func (c *Client) Stream(name string) *Client {
	return &Client{rc: c.rc, stream: name}
}

// Append writes the batch, returning the first assigned offset.
func (c *Client) Append(entries ...[]byte) (uint64, error) {
	var reply AppendReply
	if err := c.rc.Call(0, "Append", &AppendArgs{Stream: c.stream, Entries: entries}, &reply, rpc.DefaultCallTimeout); err != nil {
		return 0, err
	}
	return reply.First, nil
}

// Read fetches entries from offset from, long-polling up to wait. An offset
// below the stream's retention floor fails with a *TrimmedError.
func (c *Client) Read(from uint64, max int, wait time.Duration) ([]Entry, uint64, error) {
	var reply ReadReply
	args := &ReadArgs{Stream: c.stream, From: from, Max: max, WaitMs: int(wait / time.Millisecond)}
	if err := c.rc.Call(0, "Read", args, &reply, wait+rpc.DefaultCallTimeout); err != nil {
		return nil, 0, err
	}
	if reply.Oldest > from {
		return nil, 0, &TrimmedError{From: from, Oldest: reply.Oldest}
	}
	return reply.Entries, reply.Next, nil
}

// Tail returns the next offset the sequencer will assign.
func (c *Client) Tail() (uint64, error) {
	var reply TailReply
	if err := c.rc.Call(0, "Tail", TailArgs{Stream: c.stream}, &reply, rpc.DefaultCallTimeout); err != nil {
		return 0, err
	}
	return reply.Next, nil
}

// Close tears down the connection; a read wait in flight fails with
// rsm.ErrClientClosed.
func (c *Client) Close() error { return c.rc.Close() }
