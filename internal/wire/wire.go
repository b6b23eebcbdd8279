// Package wire defines the bespokv data-path message model and its two
// interchangeable encodings: a compact length-prefixed binary codec (the
// stand-in for the paper's Protocol Buffers option) and a RESP-like text
// codec (the stand-in for the Redis/SSDB protocol parsers). Controlets,
// datalets and clients all exchange Request/Response pairs; the codec in use
// is negotiated out of band (per-listener configuration), exactly as the
// paper's per-datalet protocol parser is.
package wire

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Op identifies a request operation. Client-visible operations come first;
// operations used internally between controlets (chain forwarding,
// propagation, recovery) follow.
type Op uint8

const (
	// OpNop does nothing; used for liveness probes.
	OpNop Op = iota
	// OpPut writes a key/value pair.
	OpPut
	// OpGet reads a value by key.
	OpGet
	// OpDel deletes a key.
	OpDel
	// OpScan returns pairs with Key <= k < EndKey, up to Limit.
	OpScan
	// OpCreateTable creates a table (namespace).
	OpCreateTable
	// OpDeleteTable drops a table and its contents.
	OpDeleteTable

	// OpChainPut forwards a Put down a replication chain (MS+SC).
	OpChainPut
	// OpChainDel forwards a Del down a replication chain (MS+SC).
	OpChainDel
	// OpReplPut asynchronously propagates a Put to a replica (MS+EC, AA+EC).
	OpReplPut
	// OpReplDel asynchronously propagates a Del to a replica.
	OpReplDel
	// OpExport streams every record — live or tombstone — with version >
	// Request.Version (0: the whole table); used for standby recovery,
	// incremental rejoin and catch-up. Live pairs arrive in StatusOK
	// batches, tombstones in StatusNotFound batches, and an empty StatusOK
	// frame carrying the record count ends the stream.
	OpExport
	// OpStats returns server statistics.
	OpStats
	// OpHandoff transfers an in-flight write from an old-epoch controlet to
	// its new-epoch replacement during a topology/consistency transition.
	OpHandoff
	// OpDelRange deletes every live key with Key <= k < EndKey — the shard
	// migration GC primitive. Each tombstone inherits the record's stored
	// version, so the sweep never clobbers a concurrent newer write.
	OpDelRange

	// OpMGet reads Request.Pairs[i].Key for every i in one frame. The
	// response carries values in Pairs (index-aligned with the request)
	// and a per-key Status in Statuses.
	OpMGet
	// OpMPut writes every Request.Pairs[i] (Key, Value, and on internal
	// hops an explicit Version) in one frame; the response carries a
	// per-pair Status in Statuses and winner versions in Pairs[i].Version.
	OpMPut
	// OpDirectGet is OpMGet served by a datalet directly (no controlet
	// hop). Unlike OpMGet it validates Request.Epoch strictly against the
	// datalet's controlet-granted epoch lease: a mismatch answers
	// StatusWrongEpoch and an expired lease StatusUnavailable, so a stale
	// client falls back through its controlet and refreshes.
	OpDirectGet
	// OpEpochSet is the internal controlet→datalet lease grant: Epoch
	// carries the cluster-map epoch and Version the lease TTL in
	// nanoseconds (0 = no expiry, for coordinator-less static setups).
	OpEpochSet
	// OpChainMPut forwards a whole OpMPut frame down a replication chain
	// (MS+SC) with head-assigned versions in Pairs[i].Version.
	OpChainMPut
	// OpTelemetry asks a datalet for its telemetry NodeSnapshot (JSON in
	// Response.Value); controlets attach it to their coordinator reports
	// so direct-path reads that bypass the controlet still get counted.
	OpTelemetry
	// OpReplMPut is OpReplPut for a whole write set (the AA+SC write-all
	// of an OpMPut) with owner-assigned versions in Pairs[i].Version; the
	// response carries a per-pair Status in Statuses and the version each
	// key holds at the replica in Pairs[i].Version.
	OpReplMPut
)

// OpMax is the highest defined op code; per-op metric tables and verb
// registries size and iterate off it.
const OpMax = OpReplMPut

// String returns the operation mnemonic.
func (o Op) String() string {
	switch o {
	case OpNop:
		return "NOP"
	case OpPut:
		return "PUT"
	case OpGet:
		return "GET"
	case OpDel:
		return "DEL"
	case OpScan:
		return "SCAN"
	case OpCreateTable:
		return "CREATETABLE"
	case OpDeleteTable:
		return "DELETETABLE"
	case OpChainPut:
		return "CHAINPUT"
	case OpChainDel:
		return "CHAINDEL"
	case OpReplPut:
		return "REPLPUT"
	case OpReplDel:
		return "REPLDEL"
	case OpExport:
		return "EXPORT"
	case OpStats:
		return "STATS"
	case OpHandoff:
		return "HANDOFF"
	case OpDelRange:
		return "DELRANGE"
	case OpMGet:
		return "MGET"
	case OpMPut:
		return "MPUT"
	case OpDirectGet:
		return "DIRECTGET"
	case OpEpochSet:
		return "EPOCHSET"
	case OpChainMPut:
		return "CHAINMPUT"
	case OpTelemetry:
		return "TELEMETRY"
	case OpReplMPut:
		return "REPLMPUT"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// Level is the per-request consistency level (§IV-C of the paper).
type Level uint8

const (
	// LevelDefault uses whatever the controlet's configured mode provides.
	LevelDefault Level = iota
	// LevelStrong demands linearizable reads (e.g. tail reads under MS+SC).
	LevelStrong
	// LevelEventual permits reads from any replica.
	LevelEventual
)

// Strong reports whether a read at level l is a strong one where a
// default-level read is strong exactly when defaultStrong is set — the
// mode's topology.Route.Strong. Clients and controlets both resolve a
// read's level here.
func (l Level) Strong(defaultStrong bool) bool {
	return l == LevelStrong || (l == LevelDefault && defaultStrong)
}

// String returns the level mnemonic.
func (l Level) String() string {
	switch l {
	case LevelDefault:
		return "default"
	case LevelStrong:
		return "strong"
	case LevelEventual:
		return "eventual"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// Status codes carried by responses.
type Status uint8

const (
	// StatusOK indicates success.
	StatusOK Status = iota
	// StatusNotFound indicates the key (or table) does not exist.
	StatusNotFound
	// StatusErr indicates a server-side failure; Response.Err has detail.
	StatusErr
	// StatusWrongEpoch tells the client its shard map is stale; re-fetch
	// from the coordinator and retry. Response.Epoch carries the current one.
	StatusWrongEpoch
	// StatusRedirect tells the client to retry at Response.Err (an address),
	// used by P2P-style routing and by mid-transition controlets.
	StatusRedirect
	// StatusUnavailable indicates the node cannot serve the request now
	// (e.g. recovering standby); the client should back off and retry.
	StatusUnavailable
	// StatusOverloaded indicates the server shed the request under load
	// (admission control, queue-delay shedding, replication backpressure)
	// or its deadline budget was already spent on arrival. The operation
	// was NOT executed — an Overloaded write is never acked — so the
	// client may safely retry after backing off.
	StatusOverloaded
)

// String returns the status mnemonic.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOTFOUND"
	case StatusErr:
		return "ERR"
	case StatusWrongEpoch:
		return "WRONGEPOCH"
	case StatusRedirect:
		return "REDIRECT"
	case StatusUnavailable:
		return "UNAVAILABLE"
	case StatusOverloaded:
		return "OVERLOADED"
	default:
		return fmt.Sprintf("STATUS(%d)", uint8(s))
	}
}

// KV is one key/value pair with its last-writer-wins version.
type KV struct {
	Key     []byte
	Value   []byte
	Version uint64
}

// Request is the single message type sent toward servers on the data path.
type Request struct {
	// ID is chosen by the sender and echoed in the matching Response.
	ID uint64
	// Op selects the operation.
	Op Op
	// Table namespaces keys; empty means the default table.
	Table string
	// Key is the primary key operand.
	Key []byte
	// Value is the value operand for writes.
	Value []byte
	// EndKey is the exclusive upper bound for OpScan.
	EndKey []byte
	// Limit caps the number of pairs returned by OpScan; 0 means no cap.
	Limit uint32
	// Version carries the LWW version on internal replication ops.
	Version uint64
	// Level is the per-request consistency level for reads.
	Level Level
	// Epoch is the shard-map epoch the sender believes is current.
	Epoch uint64
	// TraceID identifies a sampled request for cross-hop tracing; 0 means
	// untraced. On the wire it is an optional trailing field: old decoders
	// ignore it and old frames decode with TraceID 0.
	TraceID uint64
	// Pairs carries the key set of a multi-op (OpMGet/OpDirectGet use
	// Key only; OpMPut/OpChainMPut/OpReplMPut use Key+Value, plus Version
	// on internal hops). Like TraceID it is an optional trailing field:
	// absent on single-key frames, so old and new peers interoperate.
	Pairs []KV
	// Deadline is the request's remaining latency budget in nanoseconds at
	// the instant the frame was encoded; 0 means no deadline. Each hop
	// converts it to a local absolute instant on receipt (ArmDeadline),
	// drops work whose budget is already spent, and re-derives the shrunken
	// remainder when forwarding (RestampDeadline) — so the budget decays by
	// elapsed time across hops without requiring synchronized clocks. On
	// the wire it is an optional trailing field like TraceID: old decoders
	// ignore it and old frames decode with Deadline 0.
	Deadline uint64

	// DeadlineAt is the armed form of Deadline: an instant on this
	// process's monotonic clock (clock.Mono nanoseconds; 0 = none), so a
	// wall-clock step cannot stretch it. It is never encoded — servers set
	// it at decode time and forwarding paths that copy a request
	// (*fwd = *req) inherit it.
	DeadlineAt int64
}

// The three deadline methods take the clock, not a reading of it: almost
// every request carries no deadline, and for those none of them calls now
// (on some VM classes a clock reading costs more than the rest of the
// check). Servers pass clock.Mono; tests pass a clock they step.

// ArmDeadline converts the wire-relative Deadline into an absolute local
// instant, from which this hop's checks and re-stamps derive. A zero
// Deadline clears any stale DeadlineAt.
func (r *Request) ArmDeadline(now func() int64) {
	if r.Deadline == 0 {
		r.DeadlineAt = 0
		return
	}
	n := now()
	if r.Deadline > math.MaxInt64-uint64(n) {
		r.DeadlineAt = math.MaxInt64
		return
	}
	r.DeadlineAt = n + int64(r.Deadline)
}

// DeadlineExpired reports whether the request's armed budget is already
// spent; executing it would be doomed work.
func (r *Request) DeadlineExpired(now func() int64) bool {
	return r.DeadlineAt != 0 && now() >= r.DeadlineAt
}

// RestampDeadline refreshes the wire-relative Deadline from the armed
// DeadlineAt so the next hop receives the budget minus the time spent
// here. It reports false when the budget is already spent (the caller
// should drop the forward instead of sending it).
func (r *Request) RestampDeadline(now func() int64) bool {
	if r.DeadlineAt == 0 {
		return true
	}
	rem := r.DeadlineAt - now()
	if rem <= 0 {
		return false
	}
	r.Deadline = uint64(rem)
	return true
}

// Response is the single message type sent back toward clients.
type Response struct {
	// ID echoes Request.ID.
	ID uint64
	// Status reports the outcome.
	Status Status
	// Value carries the result of a Get.
	Value []byte
	// Pairs carries Scan results and Export batches.
	Pairs []KV
	// Version is the stored version of the affected/read key.
	Version uint64
	// Epoch is the server's current epoch on StatusWrongEpoch.
	Epoch uint64
	// Err carries an error message (StatusErr) or redirect address
	// (StatusRedirect).
	Err string
	// Statuses carries the per-key outcomes of a multi-op, index-aligned
	// with the request's Pairs. An optional trailing field on the wire:
	// absent on single-key responses.
	Statuses []Status
}

// Reset clears a Request for reuse without freeing its backing arrays.
func (r *Request) Reset() {
	r.ID = 0
	r.Op = OpNop
	r.Table = ""
	r.Key = r.Key[:0]
	r.Value = r.Value[:0]
	r.EndKey = r.EndKey[:0]
	r.Limit = 0
	r.Version = 0
	r.Level = LevelDefault
	r.Epoch = 0
	r.TraceID = 0
	r.Pairs = r.Pairs[:0]
	r.Deadline = 0
	r.DeadlineAt = 0
}

// Reset clears a Response for reuse without freeing its backing arrays.
func (r *Response) Reset() {
	r.ID = 0
	r.Status = StatusOK
	r.Value = r.Value[:0]
	r.Pairs = r.Pairs[:0]
	r.Version = 0
	r.Epoch = 0
	r.Err = ""
	r.Statuses = r.Statuses[:0]
}

// ErrValue returns the response's error as a Go error, or nil when OK.
func (r *Response) ErrValue() error {
	switch r.Status {
	case StatusOK, StatusNotFound:
		return nil
	default:
		if r.Err != "" {
			return fmt.Errorf("%s: %s", r.Status, r.Err)
		}
		return errors.New(r.Status.String())
	}
}

// MaxFrame is the largest encoded message either codec will accept, a guard
// against corrupt length prefixes.
const MaxFrame = 64 << 20

// ErrFrameTooLarge is returned when a length prefix exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// Message pools. Hot paths that fan requests out (chain forwarding, async
// propagation, quorum replication) allocate a Request/Response per in-flight
// peer op; recycling them keeps the per-op allocation count flat as the
// pipeline depth grows.

var requestPool = sync.Pool{New: func() any { return new(Request) }}

// GetRequest returns a zeroed Request from the pool.
func GetRequest() *Request {
	r := requestPool.Get().(*Request)
	r.Reset()
	return r
}

// PutRequest recycles req. The byte-slice fields are dropped rather than
// retained: pooled requests routinely alias buffers owned by a server
// connection's scratch request (fwd.Key = req.Key), and keeping those
// arrays would let the next pool user append into memory someone else is
// still reading.
func PutRequest(req *Request) {
	req.Key = nil
	req.Value = nil
	req.EndKey = nil
	// Pairs is different from the scalar buffers: its backing array is
	// always owned by the request (grown by its user's append or resized
	// by the codec — never assigned from a foreign slice), only its
	// elements alias outside buffers. Clearing the elements drops those
	// references, so the array itself can be kept and batch frames
	// assemble allocation-free; oversized arrays are dropped like pooled
	// response buffers.
	if cap(req.Pairs) > 1024 {
		req.Pairs = nil
	} else {
		clear(req.Pairs[:cap(req.Pairs)])
		req.Pairs = req.Pairs[:0]
	}
	req.Reset()
	requestPool.Put(req)
}

var responsePool = sync.Pool{New: func() any { return new(Response) }}

// GetResponse returns a zeroed Response from the pool. Unlike requests,
// pooled responses keep their backing arrays across uses: they are filled
// by codec decoding, which copies into the buffers (append(dst[:0], ...)),
// so the arrays are owned by the response and safe to reuse.
func GetResponse() *Response {
	r := responsePool.Get().(*Response)
	r.Reset()
	return r
}

// PutResponse recycles resp. The caller must not touch resp (or slices into
// it) afterwards.
func PutResponse(resp *Response) {
	if cap(resp.Value) > maxPooledBuf {
		resp.Value = nil
	}
	if cap(resp.Pairs) > 1024 {
		resp.Pairs = nil
	}
	if cap(resp.Statuses) > 1024 {
		resp.Statuses = nil
	}
	resp.Reset()
	responsePool.Put(resp)
}
