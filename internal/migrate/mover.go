package migrate

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// Backend is the datalet-client surface the mover drives: the source's own
// datalet (snapshot source, GC target) and the destination replicas'
// datalets (snapshot and dual-write sink). *datalet.Pool (the controlet's
// local link) and *datalet.Link (a peer datalet) implement it. Pushing
// straight to destination DATALETS with explicit versions — the same idiom
// standby recovery uses — bypasses the destination controlets' mode logic
// entirely, so one mover serves all four MS/AA × SC/EC modes.
type Backend interface {
	Do(req *wire.Request, resp *wire.Response) error
	Start(req *wire.Request, resp *wire.Response) datalet.Pending
}

// Config wires a Mover into its controlet.
type Config struct {
	Spec Spec
	// Local reaches the source's own datalet.
	Local Backend
	// Dest resolves a destination replica's datalet connection (the
	// controlet's lazily-dialed peer-datalet pool).
	Dest func(n topology.Node) (Backend, error)
	// Logf receives diagnostics.
	Logf func(format string, args ...any)
}

const (
	// scanBatch is keys per OpScan round while snapshotting.
	scanBatch = 512
	// queueDepth bounds the dual-write catch-up queue; a full queue
	// applies backpressure to the source's write path — bounded memory
	// beats unbounded lag, the same trade the MS+EC propagator makes.
	queueDepth = 8192
	// catchupWorkers drain the queue concurrently. Per-key ordering is not
	// needed: every record carries its LWW version, so two overwrites of
	// the same key delivered out of order still converge to the newer one.
	// Enough workers that steady-state depth stays near zero — the cutover
	// barrier must only drain a shallow queue, keeping the blocked-write
	// window well inside the client retry budget.
	catchupWorkers = 8
)

var errMoverStopped = errors.New("migrate: mover stopped")

// mirrorRec is one acknowledged write waiting for catch-up delivery.
type mirrorRec struct {
	del     bool
	table   string
	key     []byte
	value   []byte
	version uint64
}

// Mover executes one source shard's side of a migration. One lives on
// every replica of the source shard: all of them mirror acknowledged
// writes (any replica can be the acking node, depending on mode), while
// the coordinator elects a single replica to stream the snapshot and runs
// the cutover barrier on each.
type Mover struct {
	cfg    Config
	target *topology.Map
	ring   *topology.Ring
	srcIdx int // source shard's index in target (-1 when drained away)

	phase   atomic.Int32
	barrier atomic.Bool

	queue    chan mirrorRec
	pending  sync.WaitGroup
	pendingN atomic.Int64

	destsMu sync.Mutex
	dests   map[string][]Backend // dest shard ID → replica backends
	tables  map[string]bool      // "shardID\x00table" ensured at dest

	keysMoved  atomic.Uint64
	bytesMoved atomic.Uint64
	dualWrites atomic.Uint64
	keysGCed   atomic.Uint64
	maxVersion atomic.Uint64
	failErr    atomic.Pointer[string]

	phaseGauge *phaseGauge

	stopCh  chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// New validates the spec, arms the dual-write window and starts the
// catch-up deliverer. The caller's write path must begin calling Mirror at
// every ack point as soon as New returns.
func New(cfg Config) (*Mover, error) {
	if cfg.Spec.Target == nil || len(cfg.Spec.Target.Shards) == 0 {
		return nil, errors.New("migrate: spec has no target map")
	}
	if cfg.Spec.ID == "" || cfg.Spec.SourceShard == "" {
		return nil, errors.New("migrate: spec needs ID and SourceShard")
	}
	if cfg.Spec.Target.Partitioner != topology.HashPartitioner {
		return nil, fmt.Errorf("migrate: only hash-partitioned targets supported (got %q)", cfg.Spec.Target.Partitioner)
	}
	if cfg.Local == nil || cfg.Dest == nil {
		return nil, errors.New("migrate: Local and Dest backends required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	m := &Mover{
		cfg:        cfg,
		target:     cfg.Spec.Target.Clone(),
		srcIdx:     -1,
		queue:      make(chan mirrorRec, queueDepth),
		dests:      map[string][]Backend{},
		tables:     map[string]bool{},
		phaseGauge: phaseGaugeFor(cfg.Spec.SourceShard),
		stopCh:     make(chan struct{}),
	}
	m.ring = topology.BuildRing(m.target)
	for i, s := range m.target.Shards {
		if s.ID == cfg.Spec.SourceShard {
			m.srcIdx = i
		}
	}
	m.wg.Add(catchupWorkers)
	for i := 0; i < catchupWorkers; i++ {
		go m.catchupLoop()
	}
	m.setPhase(PhaseDualWrite)
	return m, nil
}

func (m *Mover) setPhase(p Phase) {
	m.phase.Store(int32(p))
	m.phaseGauge.set(p)
}

// ownerIdx returns key's post-cutover owner shard index.
func (m *Mover) ownerIdx(key []byte) int { return m.target.ShardFor(key, m.ring) }

// Moves reports whether key's post-cutover owner differs from the source
// shard — the filter both the snapshot and the dual-write hook apply. When
// the source shard left the map entirely (drain), every key moves.
func (m *Mover) Moves(key []byte) bool { return m.ownerIdx(key) != m.srcIdx }

// Blocks reports whether a write to key must be refused: set only during
// the cutover barrier, and only for keys that are moving away.
func (m *Mover) Blocks(key []byte) bool {
	return m.barrier.Load() && m.ownerIdx(key) != m.srcIdx
}

// Mirror dual-applies one acknowledged write to its post-cutover owner.
// Called from every mode's ack point while the write handler still holds
// the controlet's inflight read lock, so a cutover (which takes the write
// side as a barrier) cannot drain the queue before every racing Mirror has
// enqueued. Hot-path cost for a key that does not move: one ring lookup.
func (m *Mover) Mirror(del bool, table string, key, value []byte, version uint64) {
	if m.ownerIdx(key) == m.srcIdx {
		return
	}
	rec := mirrorRec{del: del, table: table, key: append([]byte(nil), key...), version: version}
	if !del {
		rec.value = append([]byte(nil), value...)
	}
	m.observeMoved(version)
	m.pending.Add(1)
	m.pendingN.Add(1)
	m.dualWrites.Add(1)
	migCatchupDepth.Add(1)
	migDualWrites.Inc()
	select {
	case m.queue <- rec:
	case <-m.stopCh:
		m.recDone()
	}
}

func (m *Mover) recDone() {
	m.pending.Done()
	m.pendingN.Add(-1)
	migCatchupDepth.Add(-1)
}

func (m *Mover) catchupLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stopCh:
			// Fail out the remainder so DrainQueue cannot hang on Stop.
			for {
				select {
				case <-m.queue:
					m.recDone()
				default:
					return
				}
			}
		case rec := <-m.queue:
			m.deliver(rec)
			m.recDone()
		}
	}
}

// deliver pushes one record to every replica datalet of its new owner,
// retrying with backoff until it lands or the mover stops. Unlike the EC
// propagator there is no give-up path: a dropped record here would be a
// lost acknowledged write after cutover. If a destination stays down, the
// coordinator's orchestration RPC times out and aborts the migration
// instead.
func (m *Mover) deliver(rec mirrorRec) {
	op := wire.OpPut
	if rec.del {
		op = wire.OpDel
	}
	for attempt := 0; ; attempt++ {
		err := m.applyAt(m.ownerIdx(rec.key), op, rec.table, rec.key, rec.value, rec.version)
		if err == nil {
			return
		}
		backoff := time.Duration(attempt+1) * 5 * time.Millisecond
		if backoff > 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		}
		m.cfg.Logf("migrate %s: catch-up delivery of %q: %v (retrying)", m.cfg.Spec.ID, rec.key, err)
		select {
		case <-m.stopCh:
			return
		case <-time.After(backoff):
		}
	}
}

// backendsFor resolves (dialing lazily) the destination shard's replica
// datalets and makes sure table exists there.
func (m *Mover) backendsFor(shardIdx int, table string) ([]Backend, error) {
	shard := m.target.Shards[shardIdx]
	m.destsMu.Lock()
	defer m.destsMu.Unlock()
	bs, ok := m.dests[shard.ID]
	if !ok {
		bs = make([]Backend, 0, len(shard.Replicas))
		for _, n := range shard.Replicas {
			b, err := m.cfg.Dest(n)
			if err != nil {
				return nil, fmt.Errorf("dial dest %s: %w", n.ID, err)
			}
			bs = append(bs, b)
		}
		m.dests[shard.ID] = bs
	}
	if table != "" && !m.tables[shard.ID+"\x00"+table] {
		// Idempotent DDL; the default table always exists.
		req := wire.GetRequest()
		req.Op = wire.OpCreateTable
		req.Table = table
		resp := wire.GetResponse()
		for _, b := range bs {
			if err := b.Do(req, resp); err != nil {
				wire.PutRequest(req)
				wire.PutResponse(resp)
				return nil, fmt.Errorf("create table %q at dest: %w", table, err)
			}
			resp.Reset()
		}
		wire.PutRequest(req)
		wire.PutResponse(resp)
		m.tables[shard.ID+"\x00"+table] = true
	}
	return bs, nil
}

// applyAt writes one versioned record to every replica datalet of the
// destination shard, pipelined; the first error wins.
func (m *Mover) applyAt(shardIdx int, op wire.Op, table string, key, value []byte, version uint64) error {
	bs, err := m.backendsFor(shardIdx, table)
	if err != nil {
		return err
	}
	var fs flights
	for _, b := range bs {
		fs.start(b, op, table, key, value, version)
	}
	return fs.wait()
}

// flight is one frame in flight to a datalet.
type flight struct {
	req  *wire.Request
	resp *wire.Response
	p    datalet.Pending
}

// flights fans frames out on the pipelined connections: start every frame,
// then wait once for all of them.
type flights []flight

// start puts one versioned record in flight to b.
func (fs *flights) start(b Backend, op wire.Op, table string, key, value []byte, version uint64) {
	req := wire.GetRequest()
	req.Op = op
	req.Table = table
	req.Key = key
	req.Value = value
	req.Version = version
	resp := wire.GetResponse()
	*fs = append(*fs, flight{req, resp, b.Start(req, resp)})
}

// wait collects every frame started, recycles its request and response and
// returns the first error, a refused reply included.
func (fs *flights) wait() error {
	var firstErr error
	for i, f := range *fs {
		err := f.p.Wait()
		if err == nil {
			err = destErr(f.req.Op, f.resp)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		wire.PutRequest(f.req)
		wire.PutResponse(f.resp)
		(*fs)[i] = flight{}
	}
	*fs = (*fs)[:0]
	return firstErr
}

// destErr maps a destination response to an error. NotFound needs care: on
// a Del it means "already gone" (fine), but on a Put it means the table is
// missing at the destination — swallowing that would silently lose the
// record, so it is surfaced for retry after table creation.
func destErr(op wire.Op, resp *wire.Response) error {
	if op == wire.OpPut && resp.Status == wire.StatusNotFound {
		return fmt.Errorf("dest rejected put: %s", resp.Err)
	}
	return resp.ErrValue()
}

// Stream copies every key that moves to its new owner, table by table, in
// scanBatch chunks over the ordinary OpScan path. The coordinator runs it
// on ONE elected source replica while every replica's dual-write hook is
// already armed: anything written after a chunk passes its position is
// re-delivered through catch-up, and LWW versions make the overlap
// converge regardless of arrival order.
func (m *Mover) Stream() (keys, bytes uint64, err error) {
	m.setPhase(PhaseSnapshot)
	tables, err := m.listTables()
	if err == nil {
		for _, table := range tables {
			err = m.walk(table, func(pairs []wire.KV) error { return m.pushChunk(table, pairs) })
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		m.fail(err)
		return m.keysMoved.Load(), m.bytesMoved.Load(), err
	}
	m.setPhase(PhaseCatchUp)
	return m.keysMoved.Load(), m.bytesMoved.Load(), nil
}

// listTables asks the local datalet which tables exist (OpStats pairs).
func (m *Mover) listTables() ([]string, error) {
	req := wire.GetRequest()
	req.Op = wire.OpStats
	resp := wire.GetResponse()
	defer wire.PutRequest(req)
	defer wire.PutResponse(resp)
	if err := m.cfg.Local.Do(req, resp); err != nil {
		return nil, err
	}
	if err := resp.ErrValue(); err != nil {
		return nil, err
	}
	tables := make([]string, 0, len(resp.Pairs))
	for _, kv := range resp.Pairs {
		tables = append(tables, string(kv.Key))
	}
	return tables, nil
}

// walk scans table on the local datalet in scanBatch chunks and hands each
// chunk's pairs to fn, which must be done with them when it returns (they
// alias the scan response). The cursor is monotonic, so fn may delete
// behind it. The walk ends at fn's first error, and on Stop between chunks.
func (m *Mover) walk(table string, fn func(pairs []wire.KV) error) error {
	var cursor []byte
	for {
		req := wire.GetRequest()
		req.Op = wire.OpScan
		req.Table = table
		req.Key = cursor
		req.Limit = scanBatch
		resp := wire.GetResponse()
		err := m.cfg.Local.Do(req, resp)
		wire.PutRequest(req)
		if err == nil {
			err = resp.ErrValue()
		}
		if err == nil {
			err = fn(resp.Pairs)
		}
		n := len(resp.Pairs)
		if n > 0 {
			cursor = append(cursor[:0], resp.Pairs[n-1].Key...)
			cursor = append(cursor, 0)
		}
		wire.PutResponse(resp)
		if err != nil {
			return err
		}
		if n < scanBatch {
			return nil
		}
		select {
		case <-m.stopCh:
			return errMoverStopped
		default:
		}
	}
}

// pushChunk fans one scan chunk's moving pairs out to their owners, all in
// flight at once on the pipelined connections, and waits for every ack
// before returning (the chunk's buffers alias the scan response).
func (m *Mover) pushChunk(table string, pairs []wire.KV) error {
	var fs flights
	for i := range pairs {
		kv := &pairs[i]
		owner := m.ownerIdx(kv.Key)
		if owner == m.srcIdx {
			continue
		}
		bs, err := m.backendsFor(owner, table)
		if err != nil {
			_ = fs.wait() // err came first; the started frames alias pairs
			return err
		}
		for _, b := range bs {
			fs.start(b, wire.OpPut, table, kv.Key, kv.Value, kv.Version)
		}
		m.keysMoved.Add(1)
		m.bytesMoved.Add(uint64(len(kv.Key) + len(kv.Value)))
		m.observeMoved(kv.Version)
		migKeysMoved.Inc()
		migBytesMoved.Add(int64(len(kv.Key) + len(kv.Value)))
	}
	return fs.wait()
}

// observeMoved tracks the highest version shipped to a destination, the
// input to the destination's version floor (AA+EC) / clock observation.
func (m *Mover) observeMoved(v uint64) {
	for {
		cur := m.maxVersion.Load()
		if v <= cur || m.maxVersion.CompareAndSwap(cur, v) {
			return
		}
	}
}

// MaxVersion returns the highest version this mover has shipped. The
// coordinator takes the max across all movers and floors the destination
// shards' version domains with it before bumping the epoch, so
// post-cutover writes always outrank migrated history.
func (m *Mover) MaxVersion() uint64 { return m.maxVersion.Load() }

// BeginCutover raises the write barrier: the controlet starts refusing
// writes to moving keys (clients see Unavailable, back off and refresh).
// The caller must then quiesce its in-flight writes and call DrainQueue.
func (m *Mover) BeginCutover() {
	m.barrier.Store(true)
	m.setPhase(PhaseCutover)
}

// DrainQueue blocks until every enqueued dual-write has been delivered to
// its destination — the cutover invariant: the coordinator must not bump
// the epoch while any source replica's delta queue is non-empty.
func (m *Mover) DrainQueue() { m.pending.Wait() }

// QueueDepth reports how many dual-writes are still queued or in flight.
func (m *Mover) QueueDepth() int64 { return m.pendingN.Load() }

// GC deletes moved keys from the source datalet, chunked like the
// snapshot. Each tombstone carries the record's stored version, so a write
// that raced in with a higher version survives. When the source shard left
// the map entirely (drain), the whole keyspace moved and one ranged delete
// per table does the sweep.
func (m *Mover) GC() (uint64, error) {
	m.setPhase(PhaseGC)
	tables, err := m.listTables()
	if err != nil {
		m.fail(err)
		return 0, err
	}
	var total uint64
	for _, table := range tables {
		var n uint64
		var err error
		if m.srcIdx < 0 {
			n, err = m.delRangeLocal(table)
		} else {
			n, err = m.gcTable(table)
		}
		total += n
		if err != nil {
			m.keysGCed.Add(total)
			m.fail(err)
			return total, err
		}
	}
	m.keysGCed.Add(total)
	migKeysGCed.Add(int64(total))
	m.setPhase(PhaseDone)
	return total, nil
}

// delRangeLocal clears one whole table via the datalet's ranged delete.
func (m *Mover) delRangeLocal(table string) (uint64, error) {
	req := wire.GetRequest()
	req.Op = wire.OpDelRange
	req.Table = table
	resp := wire.GetResponse()
	defer wire.PutRequest(req)
	defer wire.PutResponse(resp)
	if err := m.cfg.Local.Do(req, resp); err != nil {
		return 0, err
	}
	if err := resp.ErrValue(); err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// gcTable walks one table and deletes the keys that moved away, each
// chunk's deletes in flight at once.
func (m *Mover) gcTable(table string) (uint64, error) {
	var deleted uint64
	var fs flights
	err := m.walk(table, func(pairs []wire.KV) error {
		for i := range pairs {
			kv := &pairs[i]
			if m.ownerIdx(kv.Key) != m.srcIdx {
				fs.start(m.cfg.Local, wire.OpDel, table, kv.Key, nil, kv.Version)
				deleted++
			}
		}
		return fs.wait()
	})
	return deleted, err
}

func (m *Mover) fail(err error) {
	msg := err.Error()
	m.failErr.Store(&msg)
	m.setPhase(PhaseFailed)
}

// Stop tears the mover down. On the abort path the barrier lifts so the
// source serves writes again and queued dual-writes are discarded —
// harmless, since the destinations only keep LWW-versioned copies of keys
// they do not own until an epoch bump that now never comes. On the success
// path the queue is already empty.
func (m *Mover) Stop() {
	if m.stopped.Swap(true) {
		return
	}
	m.barrier.Store(false)
	close(m.stopCh)
	m.wg.Wait()
	if Phase(m.phase.Load()) != PhaseDone {
		m.setPhase(PhaseFailed)
	}
	m.phaseGauge.set(PhaseIdle)
}

// Status snapshots the mover's progress.
func (m *Mover) Status() Status {
	st := Status{
		ID:         m.cfg.Spec.ID,
		Phase:      Phase(m.phase.Load()).String(),
		KeysMoved:  m.keysMoved.Load(),
		BytesMoved: m.bytesMoved.Load(),
		DualWrites: m.dualWrites.Load(),
		QueueDepth: m.pendingN.Load(),
		KeysGCed:   m.keysGCed.Load(),
	}
	if p := m.failErr.Load(); p != nil {
		st.Err = *p
	}
	return st
}
