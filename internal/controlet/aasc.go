package controlet

import (
	"errors"
	"time"

	"bespokv/internal/dlm"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// lockClient wraps the DLM connection for the AA+SC mode.
type lockClient struct {
	c   *dlm.Client
	ttl time.Duration
}

func (s *Server) startLocks() error {
	if s.cfg.DLMAddr == "" {
		return errors.New("controlet: AA+SC requires DLMAddr")
	}
	c, err := dlm.DialClient(s.cfg.Network, s.cfg.DLMAddr, s.cfg.NodeID)
	if err != nil {
		return err
	}
	s.locks = &lockClient{c: c, ttl: s.cfg.LockTTL}
	return nil
}

func (l *lockClient) close() { _ = l.c.Close() }

// acquire wraps the DLM lock call with the lock-wait histogram and, for
// sampled requests, a "dlm.wait" span.
func (s *Server) acquire(tid uint64, key string, mode dlm.Mode) error {
	start := time.Now()
	_, err := s.locks.c.LockTraced(tid, key, mode, s.locks.ttl, s.locks.ttl)
	s.observeWait(ctlLockWait, tid, "dlm.wait", start, err)
	if err != nil {
		return downstream{"dlm", err}
	}
	return nil
}

// lockWrite takes the exclusive lease AA+SC orders a key's write under
// (§C-B) and returns the lock key for unlockWrite. The lease spans the
// local apply as well as the write-all: a slow writer whose lease expired
// loses the LWW race at every replica rather than clobbering a newer value.
func (s *Server) lockWrite(w *writeSet) (string, error) {
	key := w.table + "\x00" + string(w.pairs[0].Key)
	return key, s.acquire(w.tid, key, dlm.Write)
}

func (s *Server) unlockWrite(key string) {
	if err := s.locks.c.Unlock(key, dlm.Write); err != nil {
		s.cfg.Logf("controlet %s: unlock %q: %v (lease will expire)", s.cfg.NodeID, key, err)
	}
}

// replicateAll is the AA+SC replicate stage: apply the write at every peer
// replica concurrently — the fan-out rides the pipelined peer connections
// so the write-all costs one round-trip to the slowest peer, not the sum.
// It always waits for every peer (in-flight frames alias the client
// request's buffers); the first error wins. A dead peer fails the write;
// nothing is half-committed from the client's point of view, because the
// lease holder still owns the key — the op is simply not acked.
func (s *Server) replicateAll(_ *topology.Map, shard topology.Shard, w *writeSet) error {
	calls := make([]peerCall, 0, len(shard.Replicas)-1)
	for _, n := range shard.Replicas {
		if n.ID == s.cfg.NodeID {
			continue
		}
		fwd := wire.GetRequest()
		w.encode(fwd, frameRepl, wire.StatusOK)
		ctlReplicateAll.Inc()
		calls = append(calls, s.send(n.ControletAddr, fwd))
	}
	var firstErr error
	for i := range calls {
		if err := calls[i].wait(s); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// lockedRead is the AA+SC strong read: a shared lease on the key, then a
// local read — any active node serves linearizable reads because writes
// hold the exclusive lease across all replicas. A batch is read key by key
// (there is no batched lock primitive) and merged back into one frame.
func (s *Server) lockedRead(req *wire.Request, resp *wire.Response) {
	if req.Op == wire.OpGet {
		s.lockedGet(req, resp)
		return
	}
	kreq := wire.GetRequest()
	kresp := wire.GetResponse()
	defer wire.PutRequest(kreq)
	defer wire.PutResponse(kresp)
	resp.Status = wire.StatusOK
	for i := range req.Pairs {
		kreq.Reset()
		kreq.Op = wire.OpGet
		kreq.Table = req.Table
		kreq.Key = req.Pairs[i].Key
		kreq.Level = req.Level
		kreq.TraceID = req.TraceID
		kreq.DeadlineAt = req.DeadlineAt
		kresp.Reset()
		s.lockedGet(kreq, kresp)
		kv := wire.KV{}
		if kresp.Status == wire.StatusOK {
			kv = wire.KV{Value: append([]byte(nil), kresp.Value...), Version: kresp.Version}
		}
		resp.Pairs = append(resp.Pairs, kv)
		resp.Statuses = append(resp.Statuses, kresp.Status)
	}
}

func (s *Server) lockedGet(req *wire.Request, resp *wire.Response) {
	key := req.Table + "\x00" + string(req.Key)
	if err := s.acquire(req.TraceID, key, dlm.Read); err != nil {
		refuse(resp, err.Error())
		return
	}
	s.localCall(req, resp)
	_ = s.locks.c.Unlock(key, dlm.Read)
}
