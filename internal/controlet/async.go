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
// connection and ack without waiting for them.
func (s *Server) replicateAsync(_ *topology.Map, shard topology.Shard, w *writeSet) error {
	op := frameOps[frameRepl].put
	if w.del {
		op = frameOps[frameRepl].del
	}
	for i := range w.pairs {
		if w.status[i] != wire.StatusOK {
			continue
		}
		if s.prop.enqueue(shard, propRecord{
			op:      op,
			table:   w.table,
			key:     append([]byte(nil), w.pairs[i].Key...),
			value:   append([]byte(nil), w.pairs[i].Value...),
			version: w.pairs[i].Version,
			traceID: w.tid,
		}) {
			continue
		}
		// Bounded backpressure: the slave backlog is full and stayed full
		// past the enqueue grace. The write applied locally but is NOT
		// acknowledged — the client sees a retryable shed, and a later
		// retry re-applies idempotently under LWW. The alternative
		// (blocking here until the queue drains) is how one slow slave
		// turns into an unbounded master-side pileup.
		s.admit.Shed.Inc()
		if !w.batch {
			return errBacklog
		}
		w.status[i] = wire.StatusOverloaded
	}
	return nil
}

func (s *Server) startPropagator() error {
	s.prop = newPropagator(s)
	return nil
}

// propRecord is one pending asynchronous replication write.
type propRecord struct {
	op      wire.Op
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
	s       *Server
	mu      sync.Mutex
	queues  map[string]chan propRecord // slave controlet addr → queue
	pending sync.WaitGroup
	// pendingN mirrors the WaitGroup count for /statusz and the
	// replication-lag gauge (WaitGroup has no readable counter).
	pendingN atomic.Int64
	stopped  bool
}

// propQueueDepth bounds each slave's backlog; a full queue applies
// backpressure to the master's write path, which is preferable to
// unbounded memory growth during slave hiccups.
const propQueueDepth = 4096

// propEnqueueWait bounds how long a full slave queue may stall the write
// path before the write is shed with StatusOverloaded. The old behavior —
// blocking until space appeared — let one slow slave queue up every
// master write behind it, which is exactly the unbounded pileup overload
// control exists to prevent.
const propEnqueueWait = 50 * time.Millisecond

func newPropagator(s *Server) *propagator {
	return &propagator{s: s, queues: map[string]chan propRecord{}}
}

// enqueue queues rec for every slave, waiting at most propEnqueueWait per
// full queue. It reports false when any slave's backlog refused the
// record in time — the caller must NOT ack the write (records already
// queued for other slaves are harmless: the client's retry re-applies
// idempotently under LWW).
func (p *propagator) enqueue(shard topology.Shard, rec propRecord) bool {
	ok := true
	for _, n := range shard.Replicas {
		if n.ID == p.s.cfg.NodeID {
			continue
		}
		p.mu.Lock()
		if p.stopped {
			p.mu.Unlock()
			return false
		}
		q, qok := p.queues[n.ControletAddr]
		if !qok {
			q = make(chan propRecord, propQueueDepth)
			p.queues[n.ControletAddr] = q
			p.s.wg.Add(1)
			go p.slaveLoop(n.ControletAddr, q)
		}
		p.pending.Add(1)
		p.pendingN.Add(1)
		ctlPropPending.Add(1)
		p.mu.Unlock()
		select {
		case q <- rec:
			ctlPropEnqueued.Inc()
			continue
		default:
		}
		timer := time.NewTimer(propEnqueueWait)
		select {
		case q <- rec:
			timer.Stop()
			ctlPropEnqueued.Inc()
		case <-timer.C:
			p.pending.Done()
			p.pendingN.Add(-1)
			ctlPropPending.Add(-1)
			ok = false
		case <-p.s.stopCh:
			timer.Stop()
			p.pending.Done()
			p.pendingN.Add(-1)
			ctlPropPending.Add(-1)
			return false
		}
	}
	return ok
}

// propPipelineDepth caps how many records one delivery round keeps in
// flight on the slave connection.
const propPipelineDepth = 32

// slaveLoop drains one slave's queue, retrying transient failures and
// dropping records destined for a dead slave (recovery re-syncs it).
// Backlogged records are gathered into windows of propPipelineDepth and
// kept in flight together on the pipelined peer connection, so a slave a
// round-trip away no longer bounds propagation throughput to 1/RTT.
func (p *propagator) slaveLoop(addr string, q chan propRecord) {
	defer p.s.wg.Done()
	batch := make([]propRecord, 0, propPipelineDepth)
	for {
		select {
		case <-p.s.stopCh:
			// Fail remaining records so drain() cannot hang on stop.
			for {
				select {
				case <-q:
					p.pending.Done()
					p.pendingN.Add(-1)
					ctlPropPending.Add(-1)
				default:
					return
				}
			}
		case rec := <-q:
			batch = append(batch[:0], rec)
			for len(batch) < propPipelineDepth {
				select {
				case more := <-q:
					batch = append(batch, more)
				default:
					goto full
				}
			}
		full:
			p.deliverBatch(addr, batch)
			for range batch {
				p.pending.Done()
			}
			p.pendingN.Add(-int64(len(batch)))
			ctlPropPending.Add(-int64(len(batch)))
		}
	}
}

// deliverBatch pushes a window of records to one slave, all in flight at
// once, retrying whichever ones hit transport errors. Retries can reorder a
// failed record behind a later success, which is safe: slaves apply with
// LWW versions, so replays and reorderings converge.
func (p *propagator) deliverBatch(addr string, batch []propRecord) {
	type flight struct {
		rec  propRecord
		req  *wire.Request
		resp *wire.Response
		errc <-chan error
	}
	outstanding := batch
	link := p.s.peer(addr)
	for attempt := 0; attempt < 3; attempt++ {
		flights := make([]flight, 0, len(outstanding))
		for _, rec := range outstanding {
			req := wire.GetRequest()
			req.Op = rec.op
			req.Table = rec.table
			req.Key = rec.key
			req.Value = rec.value
			req.Version = rec.version
			req.TraceID = rec.traceID
			resp := wire.GetResponse()
			flights = append(flights, flight{rec, req, resp, link.DoAsync(req, resp)})
		}
		var failed []propRecord
		for _, f := range flights {
			if err := <-f.errc; err != nil {
				failed = append(failed, f.rec)
			}
			wire.PutRequest(f.req)
			wire.PutResponse(f.resp)
		}
		if len(failed) == 0 {
			return
		}
		outstanding = failed
		select {
		case <-p.s.stopCh:
			return
		case <-time.After(time.Duration(attempt+1) * 10 * time.Millisecond):
		}
	}
	ctlPropDropped.Add(int64(len(outstanding)))
	p.s.cfg.Logf("controlet %s: dropping %d propagation record(s) to %s (first key %q v%d): slave unreachable",
		p.s.cfg.NodeID, len(outstanding), addr, outstanding[0].key, outstanding[0].version)
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
