// Package datalet runs a single-node KV store behind a wire protocol — the
// paper's data plane. A datalet is completely unaware of any other datalet:
// it owns one storage engine per table and answers Put/Get/Del/Scan plus the
// Export stream used by standby recovery. Distribution (sharding,
// replication, consistency) lives entirely in the controlet layer.
package datalet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/overload"
	"bespokv/internal/store"
	"bespokv/internal/telemetry"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

// exportBatch is how many pairs one Export response frame carries.
const exportBatch = 256

// Config configures a datalet server.
type Config struct {
	// Name labels the datalet in logs and stats.
	Name string
	// Network and Addr select where to listen.
	Network transport.Network
	Addr    string
	// LocalAddr, when set, is the path of a unix-domain socket the datalet
	// listens on as well: the link for the controlet on the same machine,
	// which would otherwise cross the loopback TCP stack to get here. Peer
	// controlets, recovery, backup and direct-read clients keep using Addr,
	// the address the cluster map advertises.
	LocalAddr string
	// Codec selects the protocol parser (binary or text).
	Codec wire.Codec
	// NewEngine creates the storage engine backing one table. It is
	// called once for the default table at startup and once per
	// CreateTable.
	NewEngine func(table string) (store.Engine, error)
	// Logf receives diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
	// TelemetryInterval is the workload-stats window width (default 1s).
	// The datalet records only direct-path reads — everything else is
	// counted at the fronting controlet, so shard merges never
	// double-count — and serves its snapshot over OpTelemetry.
	TelemetryInterval time.Duration
	// MaxInflight caps concurrently executing data ops (admission
	// control); excess requests queue briefly and are shed with
	// StatusOverloaded once queue delay betrays overload. Epoch leases,
	// telemetry, stats and the recovery streams are never gated. Default
	// 1024; < 0 disables.
	MaxInflight int
	// ShedTarget is the CoDel queue-delay target for the shedder
	// (default 5ms).
	ShedTarget time.Duration
}

// Server is a running datalet.
type Server struct {
	cfg  Config
	addr string            // Addr's bound form
	srv  *transport.Server // Addr's listener and LocalAddr's, one connection set
	conn wire.ConnHandler

	// tables is replaced, never changed, so an op finds its engine without
	// a lock; mu orders the writers (table DDL, Close) and the readers that
	// must not see an engine closed under them (OpStats, /statusz).
	tables       atomic.Pointer[map[string]store.Engine]
	mu           sync.Mutex
	closeEngines sync.Once

	// Epoch lease for direct client reads, granted and refreshed by the
	// fronting controlet via OpEpochSet (see handleEpochSet). The datalet
	// itself is distribution-unaware; the lease is the one piece of
	// cluster state it holds, and only to fence OpDirectGet.
	epochMu  sync.RWMutex
	epoch    uint64
	epochExp time.Time // zero = no expiry (static setups)
	epochSet bool      // an OpEpochSet has landed at least once

	// tele is the per-op record wire.ServeConn stamps for every answered
	// frame; its snapshot answers OpTelemetry.
	tele *telemetry.Recorder

	// admit is the hop prologue in front of handle. Its gate admits data
	// ops (nil = admission control disabled); control ops and recovery
	// streams bypass it. The engine is the real queue here: when it
	// saturates, slot waits grow, and the CoDel shedder converts the standing
	// queue into fast StatusOverloaded answers instead of timeouts.
	admit *overload.Admission
}

// Serve starts a datalet and returns once it is listening.
func Serve(cfg Config) (*Server, error) {
	if cfg.Network == nil || cfg.Codec == nil || cfg.NewEngine == nil {
		return nil, errors.New("datalet: Network, Codec and NewEngine are required")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 1024
	}
	s := &Server{
		cfg:  cfg,
		srv:  transport.NewServer(),
		tele: dltLayer.NewRecorder(telemetry.Options{Interval: cfg.TelemetryInterval}),
		admit: overload.NewAdmission("datalet",
			overload.NewGate(overload.Config{MaxInflight: cfg.MaxInflight, Target: cfg.ShedTarget})),
	}
	s.conn = wire.ConnHandler{
		Codec: cfg.Codec, Node: cfg.Name, Layer: "datalet",
		Handle: s.handleConn, Record: s.tele.RecordOp,
	}
	// Both addresses are bound before the engine is opened — an address in
	// use is what stops a second datalet from opening a live one's files —
	// and served only once there is an engine to answer from.
	listeners := make([]transport.Listener, 0, 2)
	fail := func(err error) (*Server, error) {
		for _, l := range listeners {
			_ = l.Close()
		}
		s.tele.Close()
		return nil, err
	}
	l, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		return fail(err)
	}
	listeners = append(listeners, l)
	s.addr = l.Addr()
	if cfg.LocalAddr != "" {
		l, err := transport.Unix{}.Listen(cfg.LocalAddr)
		if err != nil {
			return fail(fmt.Errorf("datalet: local listener: %w", err))
		}
		listeners = append(listeners, l)
	}
	def, err := cfg.NewEngine("")
	if err != nil {
		return fail(err)
	}
	s.tables.Store(&map[string]store.Engine{"": def})
	for _, l := range listeners {
		s.srv.Serve(l, func(err error) {
			srvAcceptErrs.Inc()
			cfg.Logf("datalet %s: accept on %s: %v", cfg.Name, l.Addr(), err)
		}, s.serveConn)
	}
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.addr }

// LocalAddr returns the socket path of the local listener, "" without one.
func (s *Server) LocalAddr() string { return s.cfg.LocalAddr }

// Engine returns the engine backing table (nil if absent); tests and the
// in-process harness use it for white-box checks.
func (s *Server) Engine(table string) store.Engine {
	return (*s.tables.Load())[table]
}

// Close stops the listeners (unlinking the local socket file), drains every
// connection and closes every engine.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.tele.Close()
	s.closeEngines.Do(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, e := range *s.tables.Load() {
			_ = e.Close()
		}
	})
	return err
}

func (s *Server) serveConn(conn transport.Conn) {
	if err := wire.ServeConn(conn, &s.conn); err != nil {
		s.cfg.Logf("datalet %s: read: %v", s.cfg.Name, err)
	}
}

// handleConn is the connection loop's handler: the export stream writes
// its own frames, everything else is answered into resp.
func (s *Server) handleConn(req *wire.Request, resp *wire.Response, bw *bufio.Writer) (streamed bool, err error) {
	if req.Op == wire.OpExport {
		return true, s.streamExport(bw, req)
	}
	s.handleAdmit(req, resp)
	return false, nil
}

// handleAdmit is handle behind the hop prologue (overload.Admission.Admit).
func (s *Server) handleAdmit(req *wire.Request, resp *wire.Response) {
	if release, ok := s.admit.Admit(req, resp); ok {
		defer release()
		s.handle(req, resp)
	}
}

func (s *Server) engineFor(table string) (store.Engine, bool) {
	e, ok := (*s.tables.Load())[table]
	return e, ok
}

// setTables publishes a copy of the table set with table bound to e, or
// removed when e is nil. The caller holds mu.
func (s *Server) setTables(table string, e store.Engine) {
	old := *s.tables.Load()
	next := make(map[string]store.Engine, len(old)+1)
	for name, oe := range old {
		next[name] = oe
	}
	if e == nil {
		delete(next, table)
	} else {
		next[table] = e
	}
	s.tables.Store(&next)
}

func (s *Server) handle(req *wire.Request, resp *wire.Response) {
	switch req.Op {
	case wire.OpNop:
		resp.Status = wire.StatusOK

	case wire.OpCreateTable:
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, exists := s.engineFor(req.Table); exists {
			resp.Status = wire.StatusOK // idempotent
			return
		}
		e, err := s.cfg.NewEngine(req.Table)
		if err != nil {
			fail(resp, err)
			return
		}
		s.setTables(req.Table, e)
		resp.Status = wire.StatusOK

	case wire.OpDeleteTable:
		s.mu.Lock()
		defer s.mu.Unlock()
		e, exists := s.engineFor(req.Table)
		if !exists || req.Table == "" {
			resp.Status = wire.StatusNotFound
			return
		}
		s.setTables(req.Table, nil)
		_ = e.Close()
		resp.Status = wire.StatusOK

	case wire.OpPut:
		e, ok := s.engineFor(req.Table)
		if !ok {
			resp.Status = wire.StatusNotFound
			resp.Err = "no such table: " + req.Table
			return
		}
		ver, err := e.Put(req.Key, req.Value, req.Version)
		if err != nil {
			fail(resp, err)
			return
		}
		resp.Status = wire.StatusOK
		resp.Version = ver

	case wire.OpGet:
		e, ok := s.engineFor(req.Table)
		if !ok {
			resp.Status = wire.StatusNotFound
			resp.Err = "no such table: " + req.Table
			return
		}
		v, ver, found, err := e.AppendGet(resp.Value[:0], req.Key)
		if err != nil {
			fail(resp, err)
			return
		}
		if !found {
			resp.Status = wire.StatusNotFound
			return
		}
		resp.Status = wire.StatusOK
		resp.Value = v
		resp.Version = ver

	case wire.OpDel:
		e, ok := s.engineFor(req.Table)
		if !ok {
			resp.Status = wire.StatusNotFound
			resp.Err = "no such table: " + req.Table
			return
		}
		existed, winner, err := e.Delete(req.Key, req.Version)
		if err != nil {
			fail(resp, err)
			return
		}
		resp.Version = winner
		if existed {
			resp.Status = wire.StatusOK
		} else {
			resp.Status = wire.StatusNotFound
		}

	case wire.OpScan:
		e, ok := s.engineFor(req.Table)
		if !ok {
			resp.Status = wire.StatusNotFound
			resp.Err = "no such table: " + req.Table
			return
		}
		kvs, err := e.Scan(req.Key, req.EndKey, int(req.Limit))
		if err != nil {
			fail(resp, err)
			return
		}
		resp.Status = wire.StatusOK
		for _, kv := range kvs {
			resp.Pairs = append(resp.Pairs, wire.KV{Key: kv.Key, Value: kv.Value, Version: kv.Version})
		}

	case wire.OpDelRange:
		e, ok := s.engineFor(req.Table)
		if !ok {
			resp.Status = wire.StatusNotFound
			resp.Err = "no such table: " + req.Table
			return
		}
		deleted, err := delRange(e, req.Key, req.EndKey)
		if err != nil {
			fail(resp, err)
			return
		}
		resp.Status = wire.StatusOK
		resp.Version = deleted

	case wire.OpEpochSet:
		s.handleEpochSet(req, resp)

	case wire.OpMGet:
		s.multiGet(req, resp)

	case wire.OpDirectGet:
		// Direct reads bypass the controlet, so the epoch fence moves
		// here: the request must carry exactly the lease epoch, and the
		// lease must be live. Anything else sends the client back through
		// its controlet to refresh.
		epoch, live, granted := s.leaseEpoch()
		if !granted {
			resp.Status = wire.StatusUnavailable
			resp.Err = "datalet: no epoch lease granted"
			return
		}
		if !live {
			resp.Status = wire.StatusUnavailable
			resp.Err = "datalet: epoch lease expired"
			return
		}
		if req.Epoch != epoch {
			resp.Status = wire.StatusWrongEpoch
			resp.Epoch = epoch
			return
		}
		s.multiGet(req, resp)

	case wire.OpMPut:
		s.multiPut(req, resp)

	case wire.OpTelemetry:
		// The fronting controlet pulls this each heartbeat and forwards it
		// to the coordinator; identity beyond the datalet name (shard,
		// mode, epoch) is the controlet's to fill in.
		snap := s.tele.Snapshot(time.Now(), telemetry.Info{Node: s.cfg.Name, Role: "datalet"})
		buf, err := json.Marshal(snap)
		if err != nil {
			fail(resp, err)
			return
		}
		resp.Status = wire.StatusOK
		resp.Value = append(resp.Value[:0], buf...)

	case wire.OpStats:
		s.mu.Lock()
		tables := *s.tables.Load()
		names := make([]string, 0, len(tables))
		for name := range tables {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			kv := wire.KV{
				Key:   []byte(name),
				Value: []byte(strconv.Itoa(tables[name].Len())),
			}
			// Per-table recovered watermark rides along in Version so a
			// restarted node's controlet can request an incremental
			// delta instead of a full export.
			if r, ok := tables[name].(store.Recovered); ok {
				kv.Version = r.RecoveredVersion()
			}
			resp.Pairs = append(resp.Pairs, kv)
		}
		var engineName string
		if e, ok := tables[""]; ok {
			engineName = e.Name()
		}
		s.mu.Unlock()
		resp.Status = wire.StatusOK
		resp.Value = []byte(engineName)

	default:
		resp.Status = wire.StatusErr
		resp.Err = fmt.Sprintf("datalet: unsupported op %s", req.Op)
	}
}

// handleEpochSet installs (or refreshes) the controlet-granted epoch lease.
// Request.Epoch is the cluster-map epoch; Request.Version carries the TTL in
// nanoseconds, 0 meaning no expiry. Regressions are ignored so a lagging
// controlet push can never roll the fence backwards.
func (s *Server) handleEpochSet(req *wire.Request, resp *wire.Response) {
	s.epochMu.Lock()
	if !s.epochSet || req.Epoch >= s.epoch {
		s.epoch = req.Epoch
		s.epochSet = true
		if req.Version > 0 {
			s.epochExp = time.Now().Add(time.Duration(req.Version))
		} else {
			s.epochExp = time.Time{}
		}
	}
	s.epochMu.Unlock()
	resp.Status = wire.StatusOK
}

// leaseEpoch reports the current lease epoch, whether it is still live, and
// whether a lease was ever granted.
func (s *Server) leaseEpoch() (epoch uint64, live, granted bool) {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	if !s.epochSet {
		return 0, false, false
	}
	live = s.epochExp.IsZero() || time.Now().Before(s.epochExp)
	return s.epoch, live, true
}

// LeaseEpoch exposes the lease for tests and the in-process harness.
func (s *Server) LeaseEpoch() (epoch uint64, live bool) {
	epoch, live, _ = s.leaseEpoch()
	return epoch, live
}

// multiGet answers one frame of point reads in a single engine pass:
// response Pairs and Statuses are index-aligned with the request's Pairs.
//
// Every value of the frame is appended to one slab, the backing array of
// resp.Value (which the reply itself leaves empty), so the connection's
// reply buffer is the only place the values are copied to. The slab may
// move while it grows, so a pair's Value holds only its length until the
// last append; then each pair is sliced out of the slab in order.
func (s *Server) multiGet(req *wire.Request, resp *wire.Response) {
	e, ok := s.engineFor(req.Table)
	if !ok {
		resp.Status = wire.StatusNotFound
		resp.Err = "no such table: " + req.Table
		return
	}
	resp.Status = wire.StatusOK
	slab := resp.Value[:0]
	for i := range req.Pairs {
		start := len(slab)
		v, ver, found, err := e.AppendGet(slab, req.Pairs[i].Key)
		slab = v
		status := wire.StatusOK
		switch {
		case err != nil:
			status = wire.StatusErr
		case !found:
			status = wire.StatusNotFound
		}
		resp.Pairs = append(resp.Pairs, wire.KV{Value: slab[start:], Version: ver})
		resp.Statuses = append(resp.Statuses, status)
	}
	off := 0
	for i := range resp.Pairs {
		end := off + len(resp.Pairs[i].Value)
		resp.Pairs[i].Value = slab[off:end:end]
		off = end
	}
	resp.Value = slab[:0]
}

// multiPut applies one frame of writes in a single engine pass. Each pair
// carries its controlet-assigned LWW version; the response returns the
// winning stored version per pair (so the caller can detect lost races) and
// a per-pair status.
func (s *Server) multiPut(req *wire.Request, resp *wire.Response) {
	e, ok := s.engineFor(req.Table)
	if !ok {
		resp.Status = wire.StatusNotFound
		resp.Err = "no such table: " + req.Table
		return
	}
	resp.Status = wire.StatusOK
	for i := range req.Pairs {
		ver, err := e.Put(req.Pairs[i].Key, req.Pairs[i].Value, req.Pairs[i].Version)
		if err != nil {
			resp.Pairs = append(resp.Pairs, wire.KV{})
			resp.Statuses = append(resp.Statuses, wire.StatusErr)
			continue
		}
		resp.Pairs = append(resp.Pairs, wire.KV{Version: ver})
		resp.Statuses = append(resp.Statuses, wire.StatusOK)
	}
}

// streamExport writes every record of the table newer than req.Version
// (0: all of it) as batched responses — live pairs under StatusOK,
// tombstones under StatusNotFound — terminated by an empty StatusOK
// sentinel carrying the record count.
func (s *Server) streamExport(bw *bufio.Writer, req *wire.Request) error {
	e, ok := s.engineFor(req.Table)
	if !ok {
		resp := wire.Response{ID: req.ID, Status: wire.StatusNotFound, Err: "no such table: " + req.Table}
		return s.cfg.Codec.WriteResponse(bw, &resp)
	}
	// Batches are encoded without per-frame flushes when the codec allows
	// it; bufio flushes as its buffer fills and the sentinel flush below
	// pushes out the tail.
	writeBatch := s.cfg.Codec.WriteResponse
	if bcd, ok := s.cfg.Codec.(wire.BufferedCodec); ok {
		writeBatch = bcd.EncodeResponse
	}
	// Live and tombstone records accumulate in separate batches keyed by
	// status; each flushes independently as it fills.
	var live, tomb wire.Response
	live.ID, live.Status = req.ID, wire.StatusOK
	tomb.ID, tomb.Status = req.ID, wire.StatusNotFound
	total := uint64(0)
	err := e.Snapshot(req.Version, func(kv store.KV, tombstone bool) error {
		batch := &live
		if tombstone {
			batch = &tomb
		}
		batch.Pairs = append(batch.Pairs, wire.KV{
			Key:     store.CloneBytes(kv.Key),
			Value:   store.CloneBytes(kv.Value),
			Version: kv.Version,
		})
		total++
		if len(batch.Pairs) >= exportBatch {
			if err := writeBatch(bw, batch); err != nil {
				return err
			}
			batch.Pairs = batch.Pairs[:0]
		}
		return nil
	})
	if err == nil && len(live.Pairs) > 0 {
		err = writeBatch(bw, &live)
	}
	if err == nil && len(tomb.Pairs) > 0 {
		err = writeBatch(bw, &tomb)
	}
	if err != nil {
		resp := wire.Response{ID: req.ID, Status: wire.StatusErr, Err: err.Error()}
		return s.cfg.Codec.WriteResponse(bw, &resp)
	}
	final := wire.Response{ID: req.ID, Status: wire.StatusOK, Version: total}
	return s.cfg.Codec.WriteResponse(bw, &final)
}

// delRangeChunk bounds how many keys one deletion round scans out.
const delRangeChunk = 512

// delRange tombstones every live key in [start, end) in bounded chunks, so
// an arbitrarily large range never materializes in memory at once. Each
// tombstone reuses the record's stored version: a racing newer write
// (strictly higher version) survives the sweep, which is what the
// migration GC wants under last-writer-wins.
func delRange(e store.Engine, start, end []byte) (uint64, error) {
	cursor := start
	var deleted uint64
	for {
		kvs, err := e.Scan(cursor, end, delRangeChunk)
		if err != nil {
			return deleted, err
		}
		for _, kv := range kvs {
			if _, _, err := e.Delete(kv.Key, kv.Version); err != nil {
				return deleted, err
			}
			deleted++
		}
		if len(kvs) < delRangeChunk {
			return deleted, nil
		}
		cursor = append(append([]byte(nil), kvs[len(kvs)-1].Key...), 0)
	}
}

func fail(resp *wire.Response, err error) {
	resp.Status = wire.StatusErr
	resp.Err = err.Error()
	if errors.Is(err, store.ErrUnordered) {
		resp.Err = "scan unsupported by this engine"
	}
}
