package controlet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/rpc"
	"bespokv/internal/sharedlog"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// errStopped is returned for appends racing a controlet shutdown.
var errStopped = errors.New("controlet: shutting down")

// errPeerBehind is follow's refusal of a peer whose applier has no usable
// position itself — it is catching up; that passes.
var errPeerBehind = errors.New("log cursor")

// aaecVersionBase lifts log-derived versions above every Lamport version
// the other modes can issue (wall-clock seconds << 32 stays below 1<<63
// for the next few centuries), so a transition into AA+EC can never lose
// writes to stale pre-transition versions.
const aaecVersionBase = uint64(1) << 63

const (
	// applyRetryMin/Max bound the backoff of a frame the local datalet
	// did not take.
	applyRetryMin = 10 * time.Millisecond
	applyRetryMax = time.Second
)

// logApplier implements AA+EC (§C-C): every write is appended to the
// shared log first; the writer applies it locally and acks, and every
// replica's applier consumes the log in order. Because all replicas apply
// the same totally ordered sequence with offset-derived versions,
// concurrent multi-master writes to the same key converge on every node —
// the conflict case Dynomite gets wrong (§C-C).
//
// Everything between the controlet and the log is a frame: concurrent
// appends combine into one Append (append), and a Read result is applied
// as OpMPut frames (applyEntries).
type logApplier struct {
	s      *Server
	client *sharedlog.Client // appends
	reader *sharedlog.Client // the applier's long-polls, on their own connection

	// The cursor. applied is the next offset to apply and adj the
	// version-floor adjustment in force at that offset; only the applier
	// goroutine writes them, together, under curMu, so a peer that
	// bootstraps from this replica (handleLogCursor) reads a pair. The
	// write path and the offset waiters load each on its own.
	curMu      sync.Mutex
	stream     string
	applied    atomic.Uint64
	adj        atomic.Uint64
	positioned bool

	// follows hands the applier a peer to take its position from; see
	// follow.
	follows chan followReq
	// pairs backs the applier's frames from one Read result to the next.
	pairs []wire.KV

	// The append combiner (see append). queue holds the waiting appenders
	// in arrival order, under qmu; its head leads. view and datas are the
	// leader's.
	qmu        sync.Mutex
	queue      []*appender
	stopped    bool
	view       *sharedlog.Client
	viewStream string
	datas      [][]byte

	stopCh chan struct{}
}

// startLog dials the shared log and starts the applier.
func (s *Server) startLog() error {
	if s.cfg.SharedLogAddr == "" {
		return errors.New("controlet: AA+EC requires SharedLogAddr")
	}
	a := &logApplier{s: s, follows: make(chan followReq), stopCh: make(chan struct{})}
	c, err := sharedlog.DialClient(s.cfg.Network, s.cfg.SharedLogAddr)
	if err != nil {
		return err
	}
	a.client = c
	// The applier gets its own connection so long-polls never block
	// appends.
	reader, err := sharedlog.DialClient(s.cfg.Network, s.cfg.SharedLogAddr)
	if err != nil {
		c.Close()
		return err
	}
	a.reader = reader
	s.aaec = a
	s.wg.Add(1)
	go a.applyLoop()
	return nil
}

func (a *logApplier) stop() {
	close(a.stopCh)
	a.qmu.Lock()
	a.stopped = true
	a.qmu.Unlock()
	// Closing the clients fails the Append in flight, whose leader then
	// passes the lead on; every later leader sees stopped and fails its
	// frame without sending it.
	if a.client != nil {
		_ = a.client.Close()
	}
	if a.reader != nil {
		_ = a.reader.Close() // abort any in-flight long-poll read
	}
}

// --- append ---------------------------------------------------------------

// appender is one write's records waiting in the combiner's queue; they
// are sequenced contiguously, the first at offset.
type appender struct {
	// wake parks an appender that is not the head: one token, when its
	// frame has been answered (done) or when it has become the head.
	wake   chan struct{}
	stream string
	datas  [][]byte
	size   int // bytes of datas
	offset uint64
	err    error
	done   bool
}

var appenderPool = sync.Pool{New: func() any { return &appender{wake: make(chan struct{}, 1)} }}

// append sequences records, at least one, on stream as consecutive
// offsets and returns the first. Concurrent appends group-commit
// (CORFU-style) without a goroutine of their own, the way LevelDB combines
// writers: the appender at the head of the queue leads — it sends, on its
// own goroutine, every record queued behind it for the same stream as one
// Append, whose contiguous offsets it deals out — and when the frame
// returns the lead passes to the new head, which by then has the next
// frame waiting behind it. A lone appender is always the head, so it pays
// no handoff at all. Records leave in arrival order: a frame ends where
// the stream changes (a promotion mid-queue), and the odd one leads the
// next.
func (a *logApplier) append(stream string, records ...[]byte) (uint64, error) {
	if len(records) == 0 {
		return 0, errors.New("controlet: an append of no records")
	}
	w := appenderPool.Get().(*appender)
	w.stream, w.datas, w.size = stream, append(w.datas[:0], records...), 0
	for _, r := range records {
		w.size += len(r)
	}
	a.qmu.Lock()
	if a.stopped {
		a.qmu.Unlock()
		w.release()
		return 0, errStopped
	}
	a.queue = append(a.queue, w)
	head := a.queue[0] == w
	a.qmu.Unlock()
	if !head {
		<-w.wake
	}
	if !w.done {
		a.lead(w)
	}
	offset, err := w.offset, w.err
	w.release()
	return offset, err
}

func (w *appender) release() {
	clear(w.datas)
	w.datas, w.err, w.done = w.datas[:0], nil, false
	appenderPool.Put(w)
}

// lead sends the frame at the head of the queue — head's own record first —
// answers its appenders and wakes the next head. A frame's records stay
// queued while it is in flight, which is what tells a newcomer that it is
// not the head.
func (a *logApplier) lead(head *appender) {
	a.qmu.Lock()
	stopped := a.stopped
	n, records, size := 1, len(head.datas), head.size
	for ; n < len(a.queue) && a.queue[n].stream == head.stream; n++ {
		if records, size = records+len(a.queue[n].datas), size+a.queue[n].size; records > maxFramePairs || size > maxFrameBytes {
			break
		}
	}
	datas := a.datas[:0]
	for _, w := range a.queue[:n] {
		datas = append(datas, w.datas...)
	}
	if a.view == nil || a.viewStream != head.stream {
		a.view, a.viewStream = a.client.Stream(head.stream), head.stream
	}
	view := a.view
	a.qmu.Unlock()

	first, err := uint64(0), errStopped
	if !stopped {
		first, err = view.Append(datas...)
	}
	clear(datas)

	var frame [maxFramePairs]*appender
	a.qmu.Lock()
	a.datas = datas // the next leader's, once it is woken below
	followers := frame[:copy(frame[:], a.queue[1:n])]
	rest := copy(a.queue, a.queue[n:])
	clear(a.queue[rest:])
	a.queue = a.queue[:rest]
	var next *appender
	if rest > 0 {
		next = a.queue[0]
	}
	a.qmu.Unlock()
	// The next frame first: it is what everybody still queued waits for.
	if next != nil {
		next.wake <- struct{}{}
	}
	head.offset, head.err = first, err
	at := first + uint64(len(head.datas))
	for _, w := range followers {
		w.offset, w.err, w.done = at, err, true
		at += uint64(len(w.datas)) // before the wake: w is its own from then on
		w.wake <- struct{}{}
	}
}

// --- apply ----------------------------------------------------------------

// followReq asks the applier to take its position from a peer.
type followReq struct {
	ctlAddr string // the peer's control address; "" = resume at floor
	floor   uint64 // a peer cursor below this offset is no use
	done    chan error
}

// follow repositions the applier at the cursor of the live peer controlet
// at ctlAddr — the bootstrap of a replica that cannot replay the stream: a
// standby just mapped into a shard (whose history is in its peers'
// datalets, and mostly no longer in the bounded log) and a replica that
// fell below the log's floor. The applier itself asks the peer, at the
// moment it is ready to read on, so the cursor is not already stale when
// adopted; follow returns once it has. The caller then backfills from that
// peer's datalet: the peer took its cursor before that export starts, so
// the export holds every record below the cursor, the log delivers the
// rest, and LWW versions make the overlap commute. The cursor carries the
// peer's floor adjustment, which so far only a replay from offset 0 could
// reconstruct: from the cursor on, this replica's adj follows the same
// trajectory as the peer's.
func (a *logApplier) follow(ctlAddr string, floor uint64) error {
	req := followReq{ctlAddr: ctlAddr, floor: floor, done: make(chan error, 1)}
	select {
	case a.follows <- req:
		return <-req.done
	case <-a.stopCh:
		return errStopped
	}
}

// LogCursorReply is a replica's position in its shard's stream. Without
// Positioned a peer must not take it: the applier is itself waiting for a
// position, or it has one but still owes the gap below it (its catch-up
// backfill is in flight, so its datalet does not yet hold everything below
// the cursor).
type LogCursorReply struct {
	Stream     string `json:"stream"`
	Applied    uint64 `json:"applied"`
	Adj        uint64 `json:"adj"`
	Positioned bool   `json:"positioned"`
}

// handleLogCursor serves a bootstrapping peer this replica's cursor. The
// applier skips this node's own records — their writers apply them — so a
// record below the cursor may still be on its way into the datalet on a
// write handler's goroutine; the quiesce barrier waits those out, and what
// the peer exports from this node's datalet afterwards holds everything
// below the cursor — and, whatever the cursor, every record this node
// itself has had sequenced.
func (s *Server) handleLogCursor(struct{}) (LogCursorReply, error) {
	if s.aaec == nil {
		return LogCursorReply{}, errors.New("controlet: not an AA+EC controlet")
	}
	a := s.aaec
	a.curMu.Lock()
	reply := LogCursorReply{Stream: a.stream, Applied: a.applied.Load(), Adj: a.adj.Load(), Positioned: a.positioned}
	a.curMu.Unlock()
	s.inflight.Lock()
	s.inflight.Unlock() //nolint:staticcheck // barrier handover
	return reply, nil
}

// peerCursor asks the controlet at ctlAddr for its cursor.
func (a *logApplier) peerCursor(ctlAddr string) (LogCursorReply, error) {
	var cur LogCursorReply
	ctl, err := rpc.DialClient(a.s.cfg.Network, ctlAddr)
	if err == nil {
		err = ctl.Call("LogCursor", struct{}{}, &cur)
		ctl.Close()
	}
	if err != nil {
		return cur, fmt.Errorf("log cursor of %s: %w", ctlAddr, err)
	}
	return cur, nil
}

// cursorVersion is the version of the last record below a cursor: a
// replica at (next, adj) has applied every record of its stream up to that
// version, and every record from next on carries a higher one (the
// adjustment only ever rises).
func cursorVersion(next, adj uint64) uint64 { return aaecVersionBase + adj + next }

// publish moves the cursor. Only the applier goroutine calls it.
func (a *logApplier) publish(stream string, next, adj uint64, positioned bool) {
	a.curMu.Lock()
	a.stream, a.positioned = stream, positioned
	a.adj.Store(adj)
	a.applied.Store(next)
	a.curMu.Unlock()
	ctlAAECApplied.Set(int64(next))
}

// applyLoop consumes the shard's stream. It owns the cursor: it reads from
// next, applies what it read as frames, and advances only past what the
// local datalet took.
func (a *logApplier) applyLoop() {
	defer a.s.wg.Done()
	defer a.reader.Close()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	// arm sets the loop's one timer, first discarding a tick nobody took.
	arm := func(d time.Duration) {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
	}
	// pause waits d out; false = the controlet stopped.
	pause := func(d time.Duration) bool {
		arm(d)
		select {
		case <-a.stopCh:
			return false
		case <-timer.C:
			return true
		}
	}
	stream := a.s.shardID()
	var next uint64
	positioned := true
	// owed is the log floor this replica fell below, until a catch-up from
	// a peer's datalet has covered the gap, and missed the version of the
	// last record it applied before the gap opened; catching is a catch-up
	// in flight and catchingFor the floor it set out to clear.
	var owed, missed, catchingFor uint64
	var catching chan error
	caught := func(err error) {
		catching = nil
		if err == nil && owed == catchingFor {
			owed = 0
			if positioned {
				a.publish(stream, next, a.adj.Load(), true) // peers may take it now
			}
		}
	}
	// resync notices that the map has put this node into another shard (a
	// standby's promotion). That stream's history lives in the new peers'
	// datalets; replaying it from offset 0 is neither cheap nor, once the
	// log has trimmed, possible. The applier waits for the coordinator's
	// Recover, which positions it at a peer's cursor (follow) and
	// backfills the rest.
	resync := func() {
		if cur := a.s.shardID(); cur != stream {
			stream, positioned, owed = cur, false, 0
			a.publish(stream, 0, 0, false)
		}
	}
	serve := func(req followReq) {
		resync() // the request may be the first the loop hears of a new map
		at, err := a.reposition(req, stream, owed == 0)
		if err == nil {
			next, positioned = at, true
		}
		req.done <- err
	}
	a.publish(stream, 0, 0, true)
	for {
		select {
		case <-a.stopCh:
			return
		case req := <-a.follows:
			serve(req)
			continue
		case err := <-catching:
			caught(err)
			continue
		default:
		}
		resync()
		if owed != 0 && catching == nil {
			catching, catchingFor = make(chan error, 1), owed
			a.s.wg.Add(1)
			go a.catchUp(missed, owed, catching)
		}
		if !positioned {
			arm(500 * time.Millisecond) // then look at the map again
			select {
			case <-a.stopCh:
				return
			case req := <-a.follows:
				serve(req)
			case err := <-catching:
				caught(err)
			case <-timer.C:
			}
			continue
		}
		entries, n, err := a.reader.Stream(stream).Read(next, 4096, 500*time.Millisecond)
		var gone *sharedlog.TrimmedError
		if errors.As(err, &gone) {
			// Fell out of the log's retention window (a long partition, a
			// stalled datalet): the records in between exist only in the
			// peers' datalets now.
			ctlAAECRebootstraps.Inc()
			a.s.cfg.Logf("controlet %s: stream %q trimmed to %d, applier was at %d: catching up from a peer",
				a.s.cfg.NodeID, stream, gone.Oldest, next)
			if owed == 0 {
				// A gap that opens while an older one is still owed only
				// widens it.
				missed = cursorVersion(next, a.adj.Load())
			}
			positioned, owed = false, gone.Oldest
			a.publish(stream, next, a.adj.Load(), false)
			continue
		}
		if err != nil {
			if !pause(50 * time.Millisecond) {
				return
			}
			continue
		}
		if !a.applyEntries(stream, entries, pause) {
			return
		}
		next = n
		a.publish(stream, next, a.adj.Load(), owed == 0)
		if len(entries) > 0 {
			// Pace the long-poll so sustained appends coalesce into
			// batched reads instead of one wake per entry (the paper's
			// "scale the Shared Log setup" concern); costs ≤1ms of EC
			// propagation lag.
			if !pause(time.Millisecond) {
				return
			}
		}
	}
}

// reposition serves one follow request on the applier goroutine: it
// publishes the new cursor, offered to peers only when this replica owes no
// gap, and returns the offset to read on from.
func (a *logApplier) reposition(req followReq, stream string, offer bool) (uint64, error) {
	next, adj := req.floor, a.adj.Load()
	if req.ctlAddr != "" {
		cur, err := a.peerCursor(req.ctlAddr)
		switch {
		case err != nil:
			return 0, err
		case cur.Stream != stream:
			return 0, fmt.Errorf("log cursor of %s: it follows stream %q, this node %q", req.ctlAddr, cur.Stream, stream)
		case !cur.Positioned || cur.Applied < req.floor:
			return 0, fmt.Errorf("%w: %s is at %d (positioned: %v), itself behind the log's floor %d",
				errPeerBehind, req.ctlAddr, cur.Applied, cur.Positioned, req.floor)
		}
		next, adj = cur.Applied, cur.Adj
	}
	a.publish(stream, next, adj, offer)
	return next, nil
}

// catchUp is the self-driven bootstrap of a replica that fell below the
// log's floor: take a live peer's cursor, then backfill from that peer's
// datalet — what the coordinator drives for a standby (recoverFrom), except
// that this replica's datalet is not empty but stale: the records it missed
// include deletions. So the backfill is the peer's export from since, the
// version this replica had applied up to, tombstones included. It runs
// beside the applier, which reads on from the cursor meanwhile, and reports
// on done; a failure is reported only after a pause, which spaces the
// applier's next attempt.
func (a *logApplier) catchUp(since, floor uint64, done chan<- error) {
	s := a.s
	defer s.wg.Done()
	err := func() error {
		var peers []topology.Node
		shard, _ := s.myShard(s.Map())
		for _, n := range shard.Replicas {
			if n.ID != s.cfg.NodeID && !n.Recovering && n.ControlAddr != "" {
				peers = append(peers, n)
			}
		}
		backfill := func(n topology.Node) error {
			_, err := s.backfill(RecoverArgs{SourceDatalet: n.DataletAddr, Codec: n.DataletCodec}, since)
			return err
		}
		var unfilled error
		for _, n := range peers {
			if err := a.follow(n.ControlAddr, floor); err != nil {
				if errors.Is(err, errStopped) {
					return err
				}
				s.cfg.Logf("controlet %s: %v", s.cfg.NodeID, err)
				continue
			}
			if unfilled = backfill(n); unfilled == nil {
				return nil
			}
			// Positioned, but the gap is still owed.
		}
		if unfilled != nil {
			return unfilled
		}
		// No peer's applier is ahead of the floor: a single replica, every
		// replica stalled at once, fresh controlets on a stream with a
		// past. No one datalet then holds all of the gap, but together
		// they do: every record is in its writer's datalet, applied there
		// before its ack (the cursor call is the barrier for the ones in
		// flight), deletions as tombstones, which every engine keeps.
		// Take them all, then resume at the floor. What cannot be
		// recovered is a floor record inside the gap: nobody has applied
		// it, and the adjustment stays where each replica had it.
		s.cfg.Logf("controlet %s: no peer's applier is ahead of the log's floor %d: backfilling from all %d",
			s.cfg.NodeID, floor, len(peers))
		for _, n := range peers {
			if _, err := a.peerCursor(n.ControlAddr); err != nil {
				return err
			}
			if err := backfill(n); err != nil {
				return err
			}
		}
		return a.follow("", floor)
	}()
	if err != nil && !errors.Is(err, errStopped) {
		s.cfg.Logf("controlet %s: catching up from a peer: %v", s.cfg.NodeID, err)
		select {
		case <-a.stopCh:
		case <-time.After(applyRetryMax):
		}
	}
	done <- err
}

// applyEntries applies one Read result to the local datalet as frames:
// consecutive puts to one table travel as one OpMPut carrying their
// offset-derived versions; a delete (the datalet has no multi-delete), a
// floor record (it changes the versions after it), a table change and
// maxFramePairs close the frame. This node's own records (already applied
// by their writers) and other shards' are skipped. A frame the datalet did
// not take is retried until it lands: the writes in it are acknowledged,
// and moving on would lose them on this replica for good. Every refusal
// counts as passing — a transport error, a shed or timed-out request, an
// engine error (a full disk, a closing store) — except a dropped table,
// whose records have nowhere to go. A pair an engine rejected for good
// would therefore hold this replica's applier for good; no engine does
// today, and bespokv_controlet_aaec_apply_retries_total shows it if one
// ever does. False means the controlet stopped first.
func (a *logApplier) applyEntries(stream string, entries []sharedlog.Entry, pause func(time.Duration) bool) bool {
	if len(entries) == 0 {
		return true
	}
	// Log records carry no trace ID (the sampled writer's own apply is
	// traced synchronously at append time) and no deadline: the write is
	// already acknowledged and must reach every replica however late.
	w := writePool.Get().(*writeSet)
	w.pairs = a.pairs[:0]
	defer func() {
		a.pairs = w.pairs[:0]
		w.release()
	}()
	flush := func() bool {
		if len(w.pairs) == 0 {
			return true
		}
		w.batch = !w.del
		for delay := applyRetryMin; ; delay = min(2*delay, applyRetryMax) {
			w.resetStatus()
			err := a.s.applyLocal(w, false)
			if errors.Is(err, errNoTable) {
				// The table was dropped after these writes were logged;
				// they have nowhere to land, now or later.
				a.s.cfg.Logf("controlet %s: dropping %d log records: %v", a.s.cfg.NodeID, len(w.pairs), err)
				err = nil
			}
			if err == nil {
				break
			}
			ctlAAECApplyRetries.Inc()
			a.s.cfg.Logf("controlet %s: apply log frame (%d records up to version %d), retrying: %v",
				a.s.cfg.NodeID, len(w.pairs), w.pairs[len(w.pairs)-1].Version, err)
			if !pause(delay) {
				return false
			}
		}
		clear(w.pairs)
		w.pairs, w.del = w.pairs[:0], false
		return true
	}
	adj := a.adj.Load()
	for i := range entries {
		e := &entries[i]
		if len(e.Data) > 0 && e.Data[0] == recFloor {
			if !flush() {
				return false
			}
			if raised := a.floorAdj(stream, e, adj); raised != adj {
				adj = raised
				a.publish(stream, e.Offset+1, adj, true)
			}
			continue
		}
		rec, err := decodeLogRecord(e.Data)
		if err != nil {
			a.s.cfg.Logf("controlet %s: corrupt log entry at %d: %v", a.s.cfg.NodeID, e.Offset, err)
			continue
		}
		if string(rec.origin) == a.s.cfg.NodeID && rec.adj == adj {
			// Already applied synchronously at append time with this exact
			// version. If the adjustments differ, the origin acked with a stale
			// floor and we fall through to reapply at the deterministic version
			// — idempotent under LWW (same value, version >= the stale one).
			continue
		}
		if len(rec.shard) > 0 && string(rec.shard) != stream {
			continue // another shard's stream
		}
		newTable := string(rec.table) != w.table
		if rec.del || newTable || len(w.pairs) == maxFramePairs {
			if !flush() {
				return false
			}
			if newTable {
				w.table = string(rec.table) // interned once per frame
			}
		}
		w.pairs = append(w.pairs, wire.KV{Key: rec.key, Value: rec.value, Version: aaecVersionBase + adj + e.Offset + 1})
		if rec.del {
			w.del = true
			if !flush() {
				return false
			}
		}
	}
	// Versions grow with the offset, so the last one covers the batch.
	a.s.observeVersion(aaecVersionBase + adj + entries[len(entries)-1].Offset + 1)
	return flush()
}

// floorAdj returns the stream's version-floor adjustment after floor record
// e, given the one before it: raised so that every subsequent offset-derived
// version lands strictly above the floor. A migration that moves keys into
// this shard carries versions minted on the SOURCE's stream, which can sit
// far above this stream's current offsets; without the floor, post-cutover
// writes here would silently lose the LWW race to migrated history. The
// record lives in the log itself, so every replica computes the identical
// adjustment at the identical point in the sequence, and a replica that
// joins past it inherits the adjustment with its peer's cursor (follow).
func (a *logApplier) floorAdj(stream string, e *sharedlog.Entry, adj uint64) uint64 {
	shard, floor, err := decodeFloorRecord(e.Data)
	if err != nil {
		a.s.cfg.Logf("controlet %s: corrupt floor record at %d: %v", a.s.cfg.NodeID, e.Offset, err)
		return adj
	}
	if len(shard) > 0 && string(shard) != stream {
		return adj
	}
	a.s.observeVersion(floor)
	if base := aaecVersionBase + e.Offset + 1; floor > base && floor-base > adj {
		return floor - base
	}
	return adj
}

// waitApplied polls, on one timer, until the applier's cursor satisfies
// reached.
func (a *logApplier) waitApplied(every time.Duration, reached func(applied uint64) bool) error {
	if reached(a.applied.Load()) {
		return nil
	}
	timer := time.NewTimer(every)
	defer timer.Stop()
	for {
		select {
		case <-a.stopCh:
			return errStopped
		case <-timer.C:
		}
		if reached(a.applied.Load()) {
			return nil
		}
		timer.Reset(every)
	}
}

// appendFloor sequences a version-floor record through the shard's stream
// and waits until the local applier has consumed it, so writes acked by
// this node after appendFloor returns carry post-floor versions.
func (a *logApplier) appendFloor(floor uint64) error {
	shard := a.s.shardID()
	off, err := a.append(shard, encodeFloorRecord(shard, floor))
	if err != nil {
		return err
	}
	return a.waitApplied(2*time.Millisecond, func(applied uint64) bool { return applied > off })
}

// drain blocks until the applier has consumed everything appended before
// the drain began — the AA+EC side of the transition protocol (§V-B).
func (a *logApplier) drain() {
	target, err := a.client.Stream(a.s.shardID()).Tail()
	if err != nil {
		return
	}
	_ = a.waitApplied(5*time.Millisecond, func(applied uint64) bool { return applied >= target }) // stopping: nothing left to wait for
}

// orderLog is the AA+EC orderer: sequence the write through the shared
// log, then apply it locally under the offset-derived version. The log is
// also what carries the write to the other replicas, so the mode has no
// replicate stage.
func (s *Server) orderLog(w *writeSet) error {
	adj := s.aaec.adj.Load()
	shard := s.shardID()
	for i := range w.pairs {
		w.recs = append(w.recs, encodeLogRecord(s.cfg.NodeID, shard, adj, w.del, w.table, w.pairs[i].Key, w.pairs[i].Value))
	}
	// A batch is one appender per Append it fills; each pair is versioned
	// by its own record's offset.
	for lo, hi := 0, 0; lo < len(w.recs); lo = hi {
		for size := 0; hi < len(w.recs) && hi-lo < maxFramePairs && (hi == lo || size+len(w.recs[hi]) <= maxFrameBytes); hi++ {
			size += len(w.recs[hi])
		}
		start := time.Now()
		offset, err := s.aaec.append(shard, w.recs[lo:hi]...)
		s.observeWait(ctlLogAppendLat, w.tid, "log.append", start, err)
		if err != nil {
			return downstream{"sharedlog", err}
		}
		for i := lo; i < hi; i++ {
			w.pairs[i].Version = aaecVersionBase + adj + offset + uint64(i-lo) + 1
		}
	}
	s.observeVersion(w.pairs[len(w.pairs)-1].Version)
	// The record is already sequenced — every replica's applier will land
	// it regardless — so a failure from here on (including a spent
	// deadline) only means the client is not told "acked": the outcome is
	// indeterminate, like any unacknowledged write.
	return s.applyLocal(w, false)
}

// logRecord is a decoded put/del record of the shared log; its fields
// alias the entry. The shard tag makes one physical log carry every
// shard's stream, Tango-style: each applier consumes the total order but
// applies only its own shard's entries.
type logRecord struct {
	origin []byte
	shard  []byte
	adj    uint64 // floor adjustment the origin used for its synchronous apply
	del    bool
	table  []byte
	key    []byte
	value  []byte
}

// recFloor tags a version-floor record (see floorAdj); 0/1 tag ordinary
// put/del records.
const recFloor = 2

func encodeLogRecord(origin, shard string, adj uint64, del bool, table string, key, value []byte) []byte {
	out := make([]byte, 0, 30+len(origin)+len(shard)+len(table)+len(key)+len(value))
	if del {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = appendString(out, origin)
	out = appendString(out, shard)
	out = binary.AppendUvarint(out, adj)
	out = appendString(out, table)
	out = appendBytes(out, key)
	out = appendBytes(out, value)
	return out
}

func decodeLogRecord(b []byte) (logRecord, error) {
	var r logRecord
	if len(b) < 1 {
		return r, fmt.Errorf("short record")
	}
	r.del = b[0] == 1
	b = b[1:]
	var err error
	if r.origin, b, err = takeBytes(b); err != nil {
		return r, err
	}
	if r.shard, b, err = takeBytes(b); err != nil {
		return r, err
	}
	adj, w := binary.Uvarint(b)
	if w <= 0 {
		return r, fmt.Errorf("corrupt field")
	}
	r.adj = adj
	b = b[w:]
	if r.table, b, err = takeBytes(b); err != nil {
		return r, err
	}
	if r.key, b, err = takeBytes(b); err != nil {
		return r, err
	}
	if r.value, _, err = takeBytes(b); err != nil {
		return r, err
	}
	return r, nil
}

func encodeFloorRecord(shard string, floor uint64) []byte {
	out := make([]byte, 0, 12+len(shard))
	out = append(out, recFloor)
	out = appendString(out, shard)
	out = binary.AppendUvarint(out, floor)
	return out
}

func decodeFloorRecord(b []byte) (shard []byte, floor uint64, err error) {
	if len(b) < 1 || b[0] != recFloor {
		return nil, 0, fmt.Errorf("not a floor record")
	}
	shard, rest, err := takeBytes(b[1:])
	if err != nil {
		return nil, 0, err
	}
	floor, w := binary.Uvarint(rest)
	if w <= 0 {
		return nil, 0, fmt.Errorf("corrupt floor")
	}
	return shard, floor, nil
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func takeBytes(b []byte) (field, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, fmt.Errorf("corrupt field")
	}
	return b[w : w+int(n)], b[w+int(n):], nil
}
