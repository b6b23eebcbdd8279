package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"bespokv/internal/cluster"
	"bespokv/internal/datalet"
	"bespokv/internal/dlm"
	"bespokv/internal/sharedlog"
	"bespokv/internal/store/ht"
	"bespokv/internal/topology"
	"bespokv/internal/trace"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
	"bespokv/internal/workload"
)

// The layer ladder measures each layer from outside: one pass ("rung") per
// layer drives that layer's exported entry point with the workload's seeded
// op stream from a single caller and records a span around every call. The
// rungs go deeper one layer at a time, so a layer that cannot be called on
// its own gets its self time by subtracting the rung below it.

// span is one timed call. Spans of the same request share Op on every rung:
// the stream is reseeded per rung, so op i is the same key everywhere.
type span struct {
	Rung   uint8  // index into tracer.names
	Op     uint32 // position in the seeded op stream
	Parent int32  // index of the enclosing span; -1 for a rung's root span
	Start  int64  // ns since the tracer started
	End    int64
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	names []string
	spans []span
}

const (
	maxSpansPerRung = 1 << 14
	ladderRungs     = 24 // upper bound, sizes the span buffer once
)

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, ladderRungs*(maxSpansPerRung+1))}
}

func (t *tracer) begin(rung uint8, op uint32, parent int32) int32 {
	t.spans = append(t.spans, span{Rung: rung, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) int64 {
	t.spans[i].End = int64(time.Since(t.t0))
	return t.spans[i].End - t.spans[i].Start
}

// dump writes the raw spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		rec := struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Op      uint32 `json:"op"`
			Parent  int32  `json:"parent"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{i, t.names[s.Rung], s.Op, s.Parent, s.Start, s.End}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladder holds what every rung of one traced run shares.
type ladder struct {
	w         spec
	sz        sizes
	seed      int64
	per       time.Duration // time budget of one rung
	dist      workload.KeyDist
	net       transport.Network
	codec     wire.BufferedCodec
	tr        *tracer
	durs      []float64
	spanNs    float64 // cost of an empty span
	genNs     float64 // cost of drawing one op from the generator
	nread     int     // keys per read call: 1, or mgetKeys on the direct workload
	wireBytes float64 // request + response bytes of one binary-codec call
	mkeys     []wire.KV
	ns        map[string]float64 // rung name -> median ns per call
	allocs    map[string]float64 // rung name -> heap allocations per call
}

func newLadder(w spec, sz sizes, seed int64, per time.Duration) (*ladder, error) {
	net, err := transport.Lookup(w.network)
	if err != nil {
		return nil, err
	}
	l := &ladder{
		w: w, sz: sz, seed: seed, per: per, dist: w.dist(sz), net: net, codec: wire.BinaryCodec{},
		tr: newTracer(), durs: make([]float64, 0, maxSpansPerRung),
		nread: 1, ns: map[string]float64{}, allocs: map[string]float64{},
	}
	if w.direct {
		l.nread = mgetKeys
	}
	for i := 0; i < l.nread; i++ {
		l.mkeys = append(l.mkeys, wire.KV{Key: make([]byte, keySize)})
	}
	return l, nil
}

// rung runs one pass: fn is called with the op stream (reseeded, so every
// rung sees the same ops) until the rung's time or span budget is used. One
// span covers batch calls; pulls is how many ops fn draws per call, whose
// generator cost is taken off, as is the span's own cost. untimed, when not
// nil, runs after each span closes.
func (l *ladder) rung(name string, mix workload.Mix, batch int, pulls float64, fn func(g *workload.Generator) error, untimed func() error) error {
	g, err := l.w.generator(l.dist, mix, l.seed, 0)
	if err != nil {
		return err
	}
	l.tr.names = append(l.tr.names, name)
	id := uint8(len(l.tr.names) - 1)
	durs := l.durs[:0]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := l.tr.begin(id, 0, -1)
	calls := 0
	for len(durs) < maxSpansPerRung {
		s := l.tr.begin(id, uint32(calls), root)
		for b := 0; b < batch; b++ {
			if err := fn(g); err != nil {
				return fmt.Errorf("rung %s: %w", name, err)
			}
		}
		calls += batch
		durs = append(durs, float64(l.tr.end(s)))
		if untimed != nil {
			if err := untimed(); err != nil {
				return fmt.Errorf("rung %s: %w", name, err)
			}
		}
		if l.tr.spans[s].End-l.tr.spans[root].Start >= int64(l.per) {
			break
		}
	}
	l.tr.end(root)
	runtime.ReadMemStats(&m1)
	l.ns[name] = (median(durs)-l.spanNs)/float64(batch) - pulls*l.genNs
	l.allocs[name] = float64(m1.Mallocs-m0.Mallocs) / float64(calls)
	return nil
}

// readKeys draws the keys of the next read call into l.mkeys.
func (l *ladder) readKeys(g *workload.Generator) {
	for i := range l.mkeys {
		copy(l.mkeys[i].Key, g.Next().Key)
	}
}

// readRequest builds the workload's read call as one frame.
func (l *ladder) readRequest(g *workload.Generator, req *wire.Request) {
	l.readKeys(g)
	if l.w.direct {
		*req = wire.Request{Op: wire.OpMGet, Pairs: l.mkeys}
		return
	}
	*req = wire.Request{Op: wire.OpGet, Key: l.mkeys[0].Key}
}

var (
	allGets = workload.Analytics
	allPuts = workload.Mix{PutPct: 100}
)

// readFrames runs a rung that sends the workload's read call as a raw frame
// to addr through one datalet.Client (the pipelined wire client every hop
// uses).
func (l *ladder) readFrames(name, addr string) error {
	conn, err := datalet.Dial(l.net, addr, l.codec)
	if err != nil {
		return err
	}
	defer conn.Close()
	var req wire.Request
	var resp wire.Response
	return l.rung(name, allGets, 1, float64(l.nread), func(g *workload.Generator) error {
		l.readRequest(g, &req)
		if err := conn.Do(&req, &resp); err != nil {
			return err
		}
		if resp.Status == wire.StatusNotFound {
			return nil
		}
		return resp.ErrValue()
	}, nil)
}

// putFrames runs a rung of raw PUT frames; addrs[shardOf(key)] takes the
// write.
func (l *ladder) putFrames(name string, addrs []string, shardOf func(key []byte) int) error {
	conns := make([]*datalet.Client, len(addrs))
	for i, addr := range addrs {
		conn, err := datalet.Dial(l.net, addr, l.codec)
		if err != nil {
			return err
		}
		defer conn.Close()
		conns[i] = conn
	}
	var req wire.Request
	var resp wire.Response
	return l.rung(name, allPuts, 1, 1, func(g *workload.Generator) error {
		op := g.Next()
		req = wire.Request{Op: wire.OpPut, Key: op.Key, Value: op.Value}
		if err := conns[shardOf(op.Key)].Do(&req, &resp); err != nil {
			return err
		}
		return resp.ErrValue()
	}, nil)
}

func firstShard([]byte) int { return 0 }

// standalone runs the rungs that need no cluster: the harness's own costs,
// topology, wire, transport and the engine.
func (l *ladder) standalone() error {
	// An empty span, so every other rung can be corrected for it.
	l.tr.names = append(l.tr.names, "span.empty")
	durs := l.durs[:0]
	root := l.tr.begin(0, 0, -1)
	for i := 0; i < maxSpansPerRung; i++ {
		durs = append(durs, float64(l.tr.end(l.tr.begin(0, uint32(i), root))))
	}
	l.tr.end(root)
	l.spanNs = median(durs)

	nop := func(g *workload.Generator) error { g.Next(); return nil }
	if err := l.rung("workload.gen", l.w.mix, 64, 0, nop, nil); err != nil {
		return err
	}
	l.genNs = l.ns["workload.gen"]

	m := &topology.Map{Mode: l.w.mode, Partitioner: topology.HashPartitioner}
	for i := 0; i < l.w.shards; i++ {
		m.Shards = append(m.Shards, topology.Shard{ID: fmt.Sprintf("shard-%d", i)})
	}
	ring := topology.BuildRing(m)
	shardSink := 0
	lookup := func(g *workload.Generator) error { shardSink += m.ShardFor(g.Next().Key, ring); return nil }
	if err := l.rung("topology.lookup", l.w.mix, 64, 1, lookup, nil); err != nil {
		return err
	}

	// wire: request out and response back through a bufio pair, in the
	// workload's own mix of calls.
	value := make([]byte, valueSize)
	readResp := wire.Response{Status: wire.StatusOK, Value: value}
	if l.w.direct {
		readResp = wire.Response{Status: wire.StatusOK}
		for i := 0; i < l.nread; i++ {
			readResp.Pairs = append(readResp.Pairs, wire.KV{Value: value})
			readResp.Statuses = append(readResp.Statuses, wire.StatusOK)
		}
	}
	putResp := wire.Response{Status: wire.StatusOK}
	pulls := (float64(l.w.mix.GetPct)*float64(l.nread) + float64(l.w.mix.PutPct)) / 100
	var reqBytes, respBytes, frames int
	for _, codec := range []wire.BufferedCodec{wire.BinaryCodec{}, wire.TextCodec{}} {
		var reqBuf, respBuf bytes.Buffer
		reqW, reqR := bufio.NewWriter(&reqBuf), bufio.NewReader(&reqBuf)
		respW, respR := bufio.NewWriter(&respBuf), bufio.NewReader(&respBuf)
		var req, gotReq wire.Request
		var gotResp wire.Response
		binaryCodec := codec.Name() == "binary"
		fn := func(g *workload.Generator) error {
			resp := &readResp
			if op := g.Next(); op.Kind == workload.Put {
				req = wire.Request{Op: wire.OpPut, Key: op.Key, Value: op.Value}
				resp = &putResp
			} else {
				copy(l.mkeys[0].Key, op.Key)
				for i := 1; i < l.nread; i++ {
					copy(l.mkeys[i].Key, g.Next().Key)
				}
				req = wire.Request{Op: wire.OpGet, Key: l.mkeys[0].Key}
				if l.w.direct {
					req = wire.Request{Op: wire.OpMGet, Pairs: l.mkeys}
				}
			}
			if err := codec.EncodeRequest(reqW, &req); err != nil {
				return err
			}
			if err := reqW.Flush(); err != nil {
				return err
			}
			if binaryCodec {
				reqBytes += reqBuf.Len()
			}
			if err := codec.ReadRequest(reqR, &gotReq); err != nil {
				return err
			}
			if err := codec.EncodeResponse(respW, resp); err != nil {
				return err
			}
			if err := respW.Flush(); err != nil {
				return err
			}
			if binaryCodec {
				respBytes += respBuf.Len()
				frames++
			}
			return codec.ReadResponse(respR, &gotResp)
		}
		if err := l.rung("wire."+codec.Name(), l.w.mix, 16, pulls, fn, nil); err != nil {
			return err
		}
	}
	reqSize, respSize := reqBytes/frames, respBytes/frames
	l.wireBytes = float64(reqBytes+respBytes) / float64(frames)

	// transport: echo a request-sized frame out and a response-sized one
	// back over the workload's network.
	ln, err := l.net.Listen(listenAddr(l.w.network))
	if err != nil {
		return err
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, reqSize+respSize)
		for {
			if _, err := io.ReadFull(conn, buf[:reqSize]); err != nil {
				return
			}
			if _, err := conn.Write(buf[:respSize]); err != nil {
				return
			}
		}
	}()
	conn, err := l.net.Dial(ln.Addr())
	if err != nil {
		ln.Close()
		return err
	}
	buf := make([]byte, reqSize+respSize)
	echo := func(*workload.Generator) error {
		if _, err := conn.Write(buf[:reqSize]); err != nil {
			return err
		}
		_, err := io.ReadFull(conn, buf[:respSize])
		return err
	}
	err = l.rung("transport.echo", l.w.mix, 1, 0, echo, nil)
	conn.Close()
	ln.Close()
	<-echoDone
	if err != nil {
		return err
	}

	// store: the ht engine called directly.
	e := ht.New()
	defer e.Close()
	for i := 0; i < l.sz.preload; i++ {
		if _, err := e.Put(workload.Key(keySize, i), value, 0); err != nil {
			return err
		}
	}
	get := func(g *workload.Generator) error { _, _, _, err := e.Get(g.Next().Key); return err }
	put := func(g *workload.Generator) error { op := g.Next(); _, err := e.Put(op.Key, op.Value, 0); return err }
	if err := l.rung("store.get", allGets, 64, 1, get, nil); err != nil {
		return err
	}
	return l.rung("store.put", allPuts, 64, 1, put, nil)
}

func listenAddr(network string) string {
	if network == "tcp" {
		return "127.0.0.1:0"
	}
	return ""
}

// singleReplica runs the rungs that need servers but no replication, all
// against one 1-shard, 1-replica cluster in the workload's mode: the lock
// and log services, the datalet on its own, and the controlet in front of it.
func (l *ladder) singleReplica() error {
	c, err := cluster.Start(l.w.clusterOptions(1))
	if err != nil {
		return err
	}
	defer c.Close()
	cl, err := c.Client()
	if err != nil {
		return err
	}
	err = preload(cl, 0, 1, l.sz.preload)
	cl.Close()
	if err != nil {
		return err
	}

	locks, err := dlm.DialClient(l.net, c.DLM.Addr(), "benchmark")
	if err != nil {
		return err
	}
	defer locks.Close()
	var held string
	lock := func(g *workload.Generator) error {
		held = string(g.Next().Key)
		_, err := locks.Lock(held, dlm.Write, time.Second, time.Second)
		return err
	}
	unlock := func() error { return locks.Unlock(held, dlm.Write) }
	if err := l.rung("dlm.lock", allPuts, 1, 1, lock, unlock); err != nil {
		return err
	}

	log, err := sharedlog.DialClient(l.net, c.Log.Addr())
	if err != nil {
		return err
	}
	defer log.Close()
	stream := log.Stream("benchmark")
	entry := make([]byte, keySize+valueSize)
	appendEntry := func(g *workload.Generator) error {
		op := g.Next()
		copy(entry, op.Key)
		copy(entry[keySize:], op.Value)
		_, err := stream.Append(entry)
		return err
	}
	if err := l.rung("sharedlog.append", allPuts, 1, 1, appendEntry, nil); err != nil {
		return err
	}

	node := c.Pair(0, 0).Node
	for _, hop := range []struct{ name, addr string }{{"datalet", node.DataletAddr}, {"controlet1", node.ControletAddr}} {
		if err := l.readFrames(hop.name+".read", hop.addr); err != nil {
			return err
		}
		if err := l.putFrames(hop.name+".put", []string{hop.addr}, firstShard); err != nil {
			return err
		}
	}
	return nil
}

// replicated runs the two top rungs against the workload's own deployment:
// raw frames to the nodes the client would pick, then the client itself.
func (l *ladder) replicated(d *deployment) error {
	cl := d.callers[0].cl
	m := cl.Map()
	ring := topology.BuildRing(m)
	// One read target keeps the raw rung a single connection; on the
	// two-shard direct workload the other shard's keys read as not found,
	// which costs the datalet the same lookup.
	shard := m.Shards[0]
	readAddr := shard.Head().ControletAddr
	switch {
	case l.w.direct:
		readAddr = shard.Head().DataletAddr
	case l.w.mode == mssc:
		readAddr = shard.ReadTail().ControletAddr
	}
	if err := l.readFrames("cluster.read", readAddr); err != nil {
		return err
	}
	var heads []string
	for _, s := range m.Shards {
		heads = append(heads, s.Head().ControletAddr)
	}
	if err := l.putFrames("cluster.put", heads, func(key []byte) int { return m.ShardFor(key, ring) }); err != nil {
		return err
	}
	keys := make([][]byte, l.nread)
	read := func(g *workload.Generator) error {
		l.readKeys(g)
		if !l.w.direct {
			_, _, err := cl.Get("", l.mkeys[0].Key)
			return err
		}
		for i := range keys {
			keys[i] = l.mkeys[i].Key
		}
		_, err := cl.MultiGet("", keys)
		return err
	}
	put := func(g *workload.Generator) error { op := g.Next(); return cl.Put("", op.Key, op.Value) }
	if err := l.rung("client.read", allGets, 1, float64(l.nread), read, nil); err != nil {
		return err
	}
	return l.rung("client.put", allPuts, 1, 1, put, nil)
}

// stageStat summarises the spans the program's own tracer kept for one stage.
type stageStat struct {
	Stage    string  `json:"stage"`
	Spans    int     `json:"spans"`
	MedianNs float64 `json:"median_ns"`
	TotalNs  float64 `json:"total_ns"`
}

// tracerStages reads back what internal/trace recorded (its ring keeps the
// last 4096 spans) and groups it by stage.
func tracerStages() []stageStat {
	byStage := map[string][]float64{}
	for _, t := range trace.Default.Traces(0) {
		for _, s := range t.Spans {
			byStage[s.Stage] = append(byStage[s.Stage], float64(s.Dur))
		}
	}
	var out []stageStat
	for stage, durs := range byStage {
		st := stageStat{Stage: stage, Spans: len(durs), MedianNs: median(durs)}
		for _, d := range durs {
			st.TotalNs += d
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}
