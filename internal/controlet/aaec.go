package controlet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"bespokv/internal/sharedlog"
	"bespokv/internal/wire"
)

// errStopped is returned for appends racing a controlet shutdown.
var errStopped = errors.New("controlet: shutting down")

// aaecVersionBase lifts log-derived versions above every Lamport version
// the other modes can issue (wall-clock seconds << 32 stays below 1<<63
// for the next few centuries), so a transition into AA+EC can never lose
// writes to stale pre-transition versions.
const aaecVersionBase = uint64(1) << 63

// logApplier implements AA+EC (§C-C): every write is appended to the
// shared log first; the writer applies it locally and acks, and every
// replica's applier consumes the log in order. Because all replicas apply
// the same totally ordered sequence with offset-derived versions,
// concurrent multi-master writes to the same key converge on every node —
// the conflict case Dynomite gets wrong (§C-C).
type logApplier struct {
	s       *Server
	client  *sharedlog.Client
	reader  *sharedlog.Client
	applied atomic.Uint64 // next offset to apply
	adj     atomic.Uint64 // version-floor adjustment (see floor records)
	appends chan appendReq
	stopCh  chan struct{}
}

// appendReq is one write waiting for the group-commit batcher.
type appendReq struct {
	stream string
	data   []byte
	resp   chan appendResult
}

type appendResult struct {
	offset uint64
	err    error
}

// startLog dials the shared log and starts the applier and the append
// batcher.
func (s *Server) startLog() error {
	if s.cfg.SharedLogAddr == "" {
		return errors.New("controlet: AA+EC requires SharedLogAddr")
	}
	a := &logApplier{s: s, appends: make(chan appendReq, 256), stopCh: make(chan struct{})}
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
	s.wg.Add(2)
	go a.applyLoop(reader)
	go a.batchLoop()
	return nil
}

// batchLoop group-commits concurrent appends (CORFU-style): writes that
// arrive within the batching window share one Append RPC, and the log's
// contiguous offset assignment hands each its own offset.
func (a *logApplier) batchLoop() {
	defer a.s.wg.Done()
	const maxBatch = 128
	for {
		var first appendReq
		select {
		case <-a.stopCh:
			return
		case first = <-a.appends:
		}
		batch := []appendReq{first}
	gather:
		for len(batch) < maxBatch {
			select {
			case r := <-a.appends:
				if r.stream != first.stream {
					// Stream changed mid-batch (promotion); flush what
					// we have and let the odd one lead the next batch.
					go func(r appendReq) {
						select {
						case a.appends <- r:
						case <-a.stopCh:
							r.resp <- appendResult{err: errStopped}
						}
					}(r)
					break gather
				}
				batch = append(batch, r)
			default:
				break gather
			}
		}
		datas := make([][]byte, len(batch))
		for i, r := range batch {
			datas[i] = r.data
		}
		firstOff, err := a.client.Stream(first.stream).Append(datas...)
		for i, r := range batch {
			if err != nil {
				r.resp <- appendResult{err: err}
				continue
			}
			r.resp <- appendResult{offset: firstOff + uint64(i)}
		}
	}
}

// append sequences one record through the batcher on the shard's stream.
func (a *logApplier) append(stream string, data []byte) (uint64, error) {
	req := appendReq{stream: stream, data: data, resp: make(chan appendResult, 1)}
	select {
	case a.appends <- req:
	case <-a.stopCh:
		return 0, errStopped
	}
	select {
	case res := <-req.resp:
		return res.offset, res.err
	case <-a.stopCh:
		return 0, errStopped
	}
}

func (a *logApplier) stop() {
	close(a.stopCh)
	if a.client != nil {
		_ = a.client.Close()
	}
	if a.reader != nil {
		_ = a.reader.Close() // abort any in-flight long-poll read
	}
}

func (a *logApplier) applyLoop(reader *sharedlog.Client) {
	defer a.s.wg.Done()
	defer reader.Close()
	next := uint64(0)
	stream := a.s.shardID()
	for {
		select {
		case <-a.stopCh:
			return
		default:
		}
		// A standby promoted into a shard starts following that shard's
		// stream from the beginning (idempotent under LWW versions). The
		// floor adjustment replays with it: floor records are part of the
		// stream, so adj follows the same trajectory on every replay.
		if cur := a.s.shardID(); cur != stream {
			stream = cur
			next = 0
			a.adj.Store(0)
		}
		entries, n, err := reader.Stream(stream).Read(next, 4096, 500*time.Millisecond)
		if err != nil {
			select {
			case <-a.stopCh:
				return
			case <-time.After(50 * time.Millisecond):
				continue
			}
		}
		for _, e := range entries {
			a.applyEntry(e)
		}
		next = n
		a.applied.Store(next)
		ctlAAECApplied.Set(int64(next))
		if len(entries) > 0 {
			// Pace the long-poll so sustained appends coalesce into
			// batched reads instead of one wake per entry (the paper's
			// "scale the Shared Log setup" concern); costs ≤1ms of EC
			// propagation lag.
			select {
			case <-a.stopCh:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}
}

func (a *logApplier) applyEntry(e sharedlog.Entry) {
	if len(e.Data) > 0 && e.Data[0] == recFloor {
		a.applyFloor(e)
		return
	}
	rec, err := decodeLogRecord(e.Data)
	if err != nil {
		a.s.cfg.Logf("controlet %s: corrupt log entry at %d: %v", a.s.cfg.NodeID, e.Offset, err)
		return
	}
	adj := a.adj.Load()
	version := aaecVersionBase + adj + e.Offset + 1
	a.s.observeVersion(version)
	if rec.origin == a.s.cfg.NodeID && rec.adj == adj {
		// Already applied synchronously at append time with this exact
		// version. If the adjustments differ, the origin acked with a stale
		// floor and we fall through to reapply at the deterministic version
		// — idempotent under LWW (same value, version >= the stale one).
		return
	}
	if rec.shard != "" && rec.shard != a.s.shardID() {
		return // another shard's stream
	}
	// Log records carry no trace ID (the sampled writer's own apply is
	// traced synchronously at append time) and no deadline: the write is
	// already acknowledged and must reach every replica however late.
	op := wire.OpPut
	if rec.del {
		op = wire.OpDel
	}
	w := decodeWrite(&wire.Request{Op: op, Table: rec.table, Key: rec.key, Value: rec.value, Version: version})
	if err := a.s.applyLocal(w, false); err != nil {
		a.s.cfg.Logf("controlet %s: apply log entry %d: %v", a.s.cfg.NodeID, e.Offset, err)
	}
	w.release()
}

// applyFloor raises the stream's version-floor adjustment so that every
// subsequent offset-derived version lands strictly above the floor. A
// migration that moves keys into this shard carries versions minted on the
// SOURCE's stream, which can sit far above this stream's current offsets;
// without the floor, post-cutover writes here would silently lose the LWW
// race to migrated history. The record lives in the log itself, so every
// replica (and every future replay from offset 0) computes the identical
// adjustment at the identical point in the sequence.
func (a *logApplier) applyFloor(e sharedlog.Entry) {
	shard, floor, err := decodeFloorRecord(e.Data)
	if err != nil {
		a.s.cfg.Logf("controlet %s: corrupt floor record at %d: %v", a.s.cfg.NodeID, e.Offset, err)
		return
	}
	if shard != "" && shard != a.s.shardID() {
		return
	}
	base := aaecVersionBase + e.Offset + 1
	if floor <= base {
		return
	}
	if cand := floor - base; cand > a.adj.Load() {
		a.adj.Store(cand) // only the applyLoop goroutine writes adj
	}
	a.s.observeVersion(floor)
}

// appendFloor sequences a version-floor record through the shard's stream
// and waits until the local applier has consumed it, so writes acked by
// this node after appendFloor returns carry post-floor versions.
func (a *logApplier) appendFloor(floor uint64) error {
	off, err := a.append(a.s.shardID(), encodeFloorRecord(a.s.shardID(), floor))
	if err != nil {
		return err
	}
	for a.applied.Load() <= off {
		select {
		case <-a.stopCh:
			return errStopped
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// drain blocks until the applier has consumed everything appended before
// the drain began — the AA+EC side of the transition protocol (§V-B).
func (a *logApplier) drain() {
	target, err := a.client.Stream(a.s.shardID()).Tail()
	if err != nil {
		return
	}
	for a.applied.Load() < target {
		select {
		case <-a.stopCh:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// orderLog is the AA+EC orderer: sequence the write through the shared
// log, then apply it locally under the offset-derived version. The log is
// also what carries the write to the other replicas, so the mode has no
// replicate stage.
func (s *Server) orderLog(w *writeSet) error {
	adj := s.aaec.adj.Load()
	rec := logRecord{
		origin: s.cfg.NodeID,
		shard:  s.shardID(),
		adj:    adj,
		del:    w.del,
		table:  w.table,
		key:    w.pairs[0].Key,
		value:  w.pairs[0].Value,
	}
	start := time.Now()
	offset, err := s.aaec.append(rec.shard, encodeLogRecord(rec))
	s.observeWait(ctlLogAppendLat, w.tid, "log.append", start, err)
	if err != nil {
		return downstream{"sharedlog", err}
	}
	w.pairs[0].Version = aaecVersionBase + adj + offset + 1
	s.observeVersion(w.pairs[0].Version)
	// The record is already sequenced — every replica's applier will land
	// it regardless — so a failure from here on (including a spent
	// deadline) only means the client is not told "acked": the outcome is
	// indeterminate, like any unacknowledged write.
	return s.applyLocal(w, false)
}

// logRecord is the payload sequenced through the shared log. The shard tag
// makes one physical log carry every shard's stream, Tango-style: each
// applier consumes the total order but applies only its own shard's
// entries.
type logRecord struct {
	origin string
	shard  string
	adj    uint64 // floor adjustment the origin used for its synchronous apply
	del    bool
	table  string
	key    []byte
	value  []byte
}

// recFloor tags a version-floor record (see applyFloor); 0/1 tag ordinary
// put/del records.
const recFloor = 2

func encodeLogRecord(r logRecord) []byte {
	out := make([]byte, 0, 30+len(r.origin)+len(r.shard)+len(r.table)+len(r.key)+len(r.value))
	if r.del {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = appendBytes(out, []byte(r.origin))
	out = appendBytes(out, []byte(r.shard))
	out = binary.AppendUvarint(out, r.adj)
	out = appendBytes(out, []byte(r.table))
	out = appendBytes(out, r.key)
	out = appendBytes(out, r.value)
	return out
}

func decodeLogRecord(b []byte) (logRecord, error) {
	var r logRecord
	if len(b) < 1 {
		return r, fmt.Errorf("short record")
	}
	r.del = b[0] == 1
	b = b[1:]
	var f []byte
	var err error
	if f, b, err = takeBytes(b); err != nil {
		return r, err
	}
	r.origin = string(f)
	if f, b, err = takeBytes(b); err != nil {
		return r, err
	}
	r.shard = string(f)
	adj, w := binary.Uvarint(b)
	if w <= 0 {
		return r, fmt.Errorf("corrupt field")
	}
	r.adj = adj
	b = b[w:]
	if f, b, err = takeBytes(b); err != nil {
		return r, err
	}
	r.table = string(f)
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
	out = appendBytes(out, []byte(shard))
	out = binary.AppendUvarint(out, floor)
	return out
}

func decodeFloorRecord(b []byte) (shard string, floor uint64, err error) {
	if len(b) < 1 || b[0] != recFloor {
		return "", 0, fmt.Errorf("not a floor record")
	}
	f, rest, err := takeBytes(b[1:])
	if err != nil {
		return "", 0, err
	}
	floor, w := binary.Uvarint(rest)
	if w <= 0 {
		return "", 0, fmt.Errorf("corrupt floor")
	}
	return string(f), floor, nil
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func takeBytes(b []byte) (field, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, fmt.Errorf("corrupt field")
	}
	return b[w : w+int(n)], b[w+int(n):], nil
}
