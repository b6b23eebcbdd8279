package controlet

import (
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// replicateAsync is the MS+EC replicate stage (§C-A): the master has
// committed locally; queue the write for every slave on its dedicated
// connection and ack without waiting for them. The acked pairs are copied
// once, into one slab that every slave's records share.
func (s *Server) replicateAsync(_ *topology.Map, shard topology.Shard, w *writeSet) error {
	if !hasSlave(shard, s.cfg.NodeID) {
		return nil
	}
	size := 0
	for i := range w.pairs {
		if w.status[i] == wire.StatusOK {
			size += len(w.pairs[i].Key) + len(w.pairs[i].Value)
		}
	}
	slab := make([]byte, 0, size)
	for i := range w.pairs {
		if w.status[i] != wire.StatusOK {
			continue
		}
		kv := &w.pairs[i]
		at, mid := len(slab), len(slab)+len(kv.Key)
		slab = append(append(slab, kv.Key...), kv.Value...)
		w.props = append(w.props, propRecord{del: w.del, table: w.table, version: kv.Version, traceID: w.tid,
			key: slab[at:mid:mid], value: slab[mid:len(slab):len(slab)]})
	}
	took := s.prop.enqueue(shard, w.props)
	if took == len(w.props) {
		return nil
	}
	// Bounded backpressure: a slave backlog is full and stayed full past
	// the enqueue grace. The refused pairs applied locally but are NOT
	// acknowledged — the client sees a retryable shed, and a later retry
	// re-applies idempotently under LWW. The alternative (blocking here
	// until the queue drains) is how one slow slave turns into an
	// unbounded master-side pileup.
	s.admit.Shed.Add(int64(len(w.props) - took))
	if !w.batch {
		return errBacklog
	}
	j := 0
	for i := range w.pairs {
		if w.status[i] == wire.StatusOK {
			if j >= took {
				w.status[i] = wire.StatusOverloaded
			}
			j++
		}
	}
	return nil
}

// hasSlave reports whether shard has a replica other than node.
func hasSlave(shard topology.Shard, node string) bool {
	for _, n := range shard.Replicas {
		if n.ID != node {
			return true
		}
	}
	return false
}

func (s *Server) startPropagator() error {
	s.prop = newPropagator(s)
	return nil
}

// propRecord is one pending asynchronous replication write. Its key and
// value alias the slab of its write set, which the records of every slave
// share; nothing writes to it once queued.
type propRecord struct {
	del     bool
	table   string
	key     []byte
	value   []byte
	version uint64
	traceID uint64
}

// propagator fans master writes out to slaves in the background. One
// goroutine and one queue per slave keep per-slave FIFO order (which,
// combined with LWW versions, yields convergence), while the master's
// client path never blocks on replication.
type propagator struct {
	s      *Server
	mu     sync.Mutex
	slaves map[string]*slaveQueue // slave controlet addr → queue
	// pending counts queued and in-flight records, for drain.
	pending sync.WaitGroup
	// pendingN mirrors the WaitGroup count for /statusz and the
	// replication-lag gauge (WaitGroup has no readable counter).
	pendingN atomic.Int64
	stopped  bool
}

// slaveQueue is one slave's backlog. A write set's records go in under mu
// while the queue has room, and the slave's loop gathers a round under mu,
// so a round holds all of a write set that found room, not a part of it.
type slaveQueue struct {
	mu sync.Mutex
	q  chan propRecord
}

// propQueueDepth bounds each slave's backlog; a full queue applies
// backpressure to the master's write path, which is preferable to
// unbounded memory growth during slave hiccups.
const propQueueDepth = 4096

// propEnqueueWait bounds how long a full slave queue may stall the write
// path before the rest of the write is shed with StatusOverloaded. The old
// behavior — blocking until space appeared — let one slow slave queue up
// every master write behind it, which is exactly the unbounded pileup
// overload control exists to prevent.
const propEnqueueWait = 50 * time.Millisecond

// propAttempts bounds the sends of one record: a frame lost in transit or
// refused by the slave is sent again after a short backoff, and what is
// still undelivered after the last attempt is dropped (anti-entropy
// repairs the slave).
const propAttempts = 3

func newPropagator(s *Server) *propagator {
	return &propagator{s: s, slaves: map[string]*slaveQueue{}}
}

// enqueue queues recs, in order, for every slave, waiting at most
// propEnqueueWait per slave once its queue is full. It returns how many
// leading records every slave took; the caller must NOT ack the rest
// (records already queued for other slaves are harmless: the client's
// retry re-applies idempotently under LWW).
func (p *propagator) enqueue(shard topology.Shard, recs []propRecord) int {
	took := len(recs)
	for _, n := range shard.Replicas {
		if n.ID == p.s.cfg.NodeID {
			continue
		}
		p.mu.Lock()
		if p.stopped {
			p.mu.Unlock()
			return 0
		}
		sq, ok := p.slaves[n.ControletAddr]
		if !ok {
			sq = &slaveQueue{q: make(chan propRecord, propQueueDepth)}
			p.slaves[n.ControletAddr] = sq
			p.s.wg.Add(1)
			go p.slaveLoop(n.ControletAddr, sq)
		}
		p.add(len(recs))
		p.mu.Unlock()
		sent := sq.offer(recs, p.s.stopCh)
		ctlPropEnqueued.Add(int64(sent))
		p.add(sent - len(recs))
		took = min(took, sent)
	}
	return took
}

// add moves the pending count by n records.
func (p *propagator) add(n int) {
	p.pending.Add(n)
	p.pendingN.Add(int64(n))
	ctlPropPending.Add(int64(n))
}

// offer puts recs into the queue in order, under mu while there is room,
// then one at a time until propEnqueueWait has passed or stop closes. It
// returns how many went in.
func (sq *slaveQueue) offer(recs []propRecord, stop <-chan struct{}) int {
	n, full := 0, false
	sq.mu.Lock()
	for n < len(recs) && !full {
		select {
		case sq.q <- recs[n]:
			n++
		default:
			full = true
		}
	}
	sq.mu.Unlock()
	if !full {
		return n
	}
	timer := time.NewTimer(propEnqueueWait)
	defer timer.Stop()
	for ; n < len(recs); n++ {
		select {
		case sq.q <- recs[n]:
		case <-timer.C:
			return n
		case <-stop:
			return n
		}
	}
	return n
}

// gather appends queued records to round, up to maxFramePairs, without
// waiting for more.
func (sq *slaveQueue) gather(round []propRecord) []propRecord {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	for len(round) < maxFramePairs {
		select {
		case rec := <-sq.q:
			round = append(round, rec)
		default:
			return round
		}
	}
	return round
}

// slaveLoop drains one slave's queue a round of up to maxFramePairs
// records at a time, each round cut into frames (cutFrame) that are all in
// flight together on the pipelined peer connection, so neither the records
// per frame nor a slave a round-trip away bounds propagation throughput.
func (p *propagator) slaveLoop(addr string, sq *slaveQueue) {
	defer p.s.wg.Done()
	round := make([]propRecord, 0, maxFramePairs)
	for {
		select {
		case <-p.s.stopCh:
			// Fail remaining records so drain() cannot hang on stop.
			for {
				select {
				case <-sq.q:
					p.add(-1)
				default:
					return
				}
			}
		case rec := <-sq.q:
			round = sq.gather(append(round[:0], rec))
			p.deliver(addr, round)
			clear(round) // the slabs are the write sets'
			p.add(-len(round))
		}
	}
}

// deliver sends a round of records to one slave, re-sending whatever did
// not arrive — a frame that failed in transit or that the slave refused,
// or a pair of a frame that the slave refused — up to propAttempts times.
// Retries can reorder a failed record behind a later success, which is
// safe: slaves apply with LWW versions, so replays and reorderings
// converge.
func (p *propagator) deliver(addr string, recs []propRecord) {
	for attempt := 1; ; attempt++ {
		if recs = p.sendFrames(addr, recs); len(recs) == 0 {
			return
		}
		if attempt == propAttempts {
			break
		}
		select {
		case <-p.s.stopCh:
			return
		case <-time.After(time.Duration(attempt) * 10 * time.Millisecond):
		}
	}
	ctlPropDropped.Add(int64(len(recs)))
	p.s.cfg.Logf("controlet %s: dropping %d propagation record(s) to %s (first key %q v%d): slave unreachable or refusing",
		p.s.cfg.NodeID, len(recs), addr, recs[0].key, recs[0].version)
}

// sendFrames cuts recs into frames, starts every frame before it waits on
// any, and returns the records that did not arrive, in order, moved to the
// front of recs.
func (p *propagator) sendFrames(addr string, recs []propRecord) []propRecord {
	var (
		calls [maxFramePairs]peerCall
		ends  [maxFramePairs]int
		n     int
	)
	for lo := 0; lo < len(recs); n++ {
		ends[n] = lo + cutFrame(recs[lo:])
		calls[n] = p.s.send(addr, frameOf(recs[lo:ends[n]]))
		lo = ends[n]
	}
	failed := recs[:0] // never ahead of the frame being read
	for k, lo := 0, 0; k < n; k++ {
		frame := recs[lo:ends[k]]
		lo = ends[k]
		err := calls[k].wait(func(resp *wire.Response) error {
			if len(frame) == 1 {
				return nil
			}
			for j := range frame {
				if j >= len(resp.Statuses) || resp.Statuses[j] != wire.StatusOK && resp.Statuses[j] != wire.StatusNotFound {
					failed = append(failed, frame[j])
				}
			}
			return nil
		})
		if err != nil {
			failed = append(failed, frame...)
		}
	}
	return failed
}

// cutFrame returns how many of recs, from the first, one frame carries: a
// run of puts to one table, at most maxFramePairs records and, past the
// first, maxFrameBytes of keys and values. A delete goes alone: there is
// no multi-key delete frame.
func cutFrame(recs []propRecord) int {
	if recs[0].del {
		return 1
	}
	n, size := 1, len(recs[0].key)+len(recs[0].value)
	for ; n < len(recs) && n < maxFramePairs; n++ {
		r := &recs[n]
		if size += len(r.key) + len(r.value); r.del || r.table != recs[0].table || size > maxFrameBytes {
			break
		}
	}
	return n
}

// frameOf is the pooled frame that carries a cutFrame run: the single-key
// op of a lone record, one OpReplMPut otherwise. A frame has one trace ID:
// that of its first record a client sampled, if any.
func frameOf(recs []propRecord) *wire.Request {
	ops := frameOps[frameRepl]
	fwd := wire.GetRequest()
	fwd.Table, fwd.TraceID = recs[0].table, recs[0].traceID
	if len(recs) == 1 {
		r := &recs[0]
		if fwd.Op = ops.put; r.del {
			fwd.Op = ops.del
		}
		fwd.Key, fwd.Value, fwd.Version = r.key, r.value, r.version
		return fwd
	}
	fwd.Op = ops.multi
	if cap(fwd.Pairs) < len(recs) {
		fwd.Pairs = make([]wire.KV, 0, len(recs))
	}
	for i := range recs {
		fwd.Pairs = append(fwd.Pairs, wire.KV{Key: recs[i].key, Value: recs[i].value, Version: recs[i].version})
		if fwd.TraceID == 0 {
			fwd.TraceID = recs[i].traceID
		}
	}
	return fwd
}

// drain blocks until every enqueued record has been delivered or given up
// on — the MS+EC transition guarantee ("the old master keeps flushing out
// any pending propagation", §V-A).
func (p *propagator) drain() {
	p.pending.Wait()
}

func (p *propagator) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
}
