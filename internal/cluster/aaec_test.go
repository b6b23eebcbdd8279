package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bespokv/internal/client"
	"bespokv/internal/datalet"
	"bespokv/internal/histcheck"
	"bespokv/internal/metrics"
	"bespokv/internal/sharedlog"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// The bounded-log suites: the shared log runs with 8-entry segments, so a
// stream retains 64 records and a few hundred writes put a replica (or a
// floor record) behind the retention window.
const smallLogSegment = 8

var (
	aaecMode        = topology.Mode{Topology: topology.AA, Consistency: topology.Eventual}
	logEntriesRead  = metrics.Default.Counter("bespokv_sharedlog_entries_served_total")
	aaecRebootstrap = metrics.Default.Counter("bespokv_controlet_aaec_rebootstraps_total")
)

// appliedOffset reads a pair's log cursor off its status page.
func appliedOffset(p *Pair) uint64 {
	off, _ := p.Controlet.Status().(map[string]any)["aaec_applied_offset"].(uint64)
	return off
}

// streamBounds returns the oldest retained offset and the tail of a stream.
func streamBounds(t *testing.T, c *Cluster, stream string) (oldest, tail uint64) {
	t.Helper()
	lc, err := sharedlog.DialClient(c.hostNet(c.Net, "admin"), c.controlAddr(c.logIDs))
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	st := lc.Stream(stream)
	if tail, err = st.Tail(); err != nil {
		t.Fatal(err)
	}
	var gone *sharedlog.TrimmedError
	if _, _, err := st.Read(0, 1, 0); errors.As(err, &gone) {
		oldest = gone.Oldest
	} else if err != nil {
		t.Fatal(err)
	}
	return oldest, tail
}

// putRange writes keys prefix-lo … prefix-(hi-1), each its own value,
// recording them when rec is set. A put the client gave up on (its picks
// kept landing on a cut-off replica) is tried again: the value is the same.
func putRange(t *testing.T, cli *client.Client, rec *histcheck.Recorder, prefix string, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		k := fmt.Sprintf("%s-%05d", prefix, i)
		for attempt := 1; ; attempt++ {
			var ref histcheck.OpRef
			if rec != nil {
				ref = rec.BeginWrite(0, k, k)
			}
			err := cli.Put("", []byte(k), []byte(k))
			if rec != nil {
				rec.EndWrite(ref, err)
			}
			if err == nil {
				break
			}
			if attempt == 5 {
				t.Fatalf("put %s: %v", k, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// delKey deletes k, recorded, with putRange's retry.
func delKey(t *testing.T, cli *client.Client, rec *histcheck.Recorder, k string) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		ref := rec.BeginDelete(0, k)
		_, err := cli.Del("", []byte(k))
		rec.EndWrite(ref, err)
		if err == nil {
			return
		}
		if attempt == 5 {
			t.Fatalf("del %s: %v", k, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAAECPartitionedReplicaRebootstraps cuts one replica off until the log
// has trimmed far past its cursor. After the heal it finds itself below
// the floor, takes a peer's cursor, backfills from that peer's datalet and
// follows the log again: every replica converges on exactly the written
// values, with no anti-entropy round helping. The gap holds deletions too,
// which only the log ever carried: every engine lists them as tombstones in
// the peer's export from the version the replica was cut off at.
func TestAAECPartitionedReplicaRebootstraps(t *testing.T) {
	for _, engine := range []string{"ht", "btree", "lsm", "applog"} {
		t.Run(engine, func(t *testing.T) { partitionedReplicaRebootstraps(t, engine) })
	}
}

func partitionedReplicaRebootstraps(t *testing.T, engine string) {
	seed := nemesisSeed(t)
	logSeed(t, seed)
	c, f := startFaultCluster(t, seed, Options{
		Mode:              aaecMode,
		Engine:            engine,
		Shards:            1,
		Replicas:          3,
		DisableFailover:   true, // the cut-off replica stays in the map
		LogSegmentEntries: smallLogSegment,
	})
	cli, err := c.ClientConfig(client.Config{OpTimeout: 100 * time.Millisecond, BreakerThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	rec := histcheck.NewRecorder()
	putRange(t, cli, rec, "pre", 0, 50)

	lagger := c.Shards[0][2]
	before := aaecRebootstrap.Value()
	f.Isolate(lagger.Node.ID)
	// Deletions inside the gap: the log that carried them will be gone, and
	// a peer's datalet no longer lists the keys.
	putRange(t, cli, rec, "cut", 0, 20)
	for _, k := range []string{"pre-00000", "pre-00049", "cut-00007"} {
		delKey(t, cli, rec, k)
	}
	putRange(t, cli, rec, "cut", 20, 400)
	stuck := appliedOffset(lagger)
	oldest, tail := streamBounds(t, c, "shard-0")
	if oldest <= stuck {
		t.Fatalf("log floor %d has not passed the cut-off replica's cursor %d (tail %d)", oldest, stuck, tail)
	}
	f.Heal()
	putRange(t, cli, rec, "healed", 0, 100)

	eventually(t, 15*time.Second, func() string {
		if aaecRebootstrap.Value() == before {
			return "the cut-off replica never noticed it was below the log's floor"
		}
		if problems := convergenceProblems(t, c, rec.Ops()); len(problems) > 0 {
			return fmt.Sprintf("seed %d: replicas did not converge: %v", seed, problems)
		}
		return ""
	})
	if got := lagger.Datalet.Engine("").Len(); got != 547 {
		t.Fatalf("re-bootstrapped replica holds %d keys, want 547", got)
	}
	// It follows the log again: a write through a peer reaches it.
	putRange(t, cli, nil, "after", 0, 20)
	eventually(t, 10*time.Second, func() string {
		if got := lagger.Datalet.Engine("").Len(); got != 567 {
			return fmt.Sprintf("re-bootstrapped replica holds %d keys, want 567", got)
		}
		return ""
	})
}

// TestFailoverStandbyRecoveryAAEC promotes a standby into an AA+EC shard
// whose log has long trimmed offset 0. The standby takes its place in the
// stream from the backfill source's cursor instead of replaying history:
// with the writers paused it reads next to nothing from the log, holds
// every key when the coordinator clears its Recovering mark, and follows
// new writes from there.
func TestFailoverStandbyRecoveryAAEC(t *testing.T) {
	c := startCluster(t, Options{
		Mode:              aaecMode,
		Shards:            1,
		Replicas:          3,
		Standbys:          1,
		HeartbeatTimeout:  400 * time.Millisecond,
		LogSegmentEntries: smallLogSegment,
	})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const n = 600
	putRange(t, cli, nil, "key", 0, n)
	oldest, tail := streamBounds(t, c, "shard-0")
	if oldest == 0 {
		t.Fatalf("log still holds offset 0 after %d writes (tail %d)", n, tail)
	}
	eventually(t, 10*time.Second, func() string {
		for _, p := range c.Shards[0] {
			if off := appliedOffset(p); off != tail {
				return fmt.Sprintf("%s applied %d of %d", p.Node.ID, off, tail)
			}
		}
		return ""
	})
	served, rebootstraps := logEntriesRead.Value(), aaecRebootstrap.Value()

	c.KillNode(0, 1)
	admin, err := c.Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	eventually(t, 15*time.Second, func() string {
		m, err := admin.GetMap()
		if err != nil {
			return err.Error()
		}
		for _, r := range m.Shards[0].Replicas {
			if r.ID == "standby-0" && !r.Recovering {
				return ""
			}
		}
		return fmt.Sprintf("standby not serving yet: %+v", m.Shards[0].Replicas)
	})
	sb := c.Standbys[0]
	if got := sb.Datalet.Engine("").Len(); got != n {
		t.Fatalf("standby serves with %d/%d keys", got, n)
	}
	if got := appliedOffset(sb); got != tail {
		t.Fatalf("standby's cursor is at %d, want the peers' %d", got, tail)
	}
	if read := logEntriesRead.Value() - served; read >= smallLogSegment {
		t.Fatalf("the standby read %d log entries to join an idle shard: it replayed history", read)
	}
	if aaecRebootstrap.Value() != rebootstraps {
		t.Fatal("the standby fell below the log's floor instead of starting at a peer's cursor")
	}
	putRange(t, cli, nil, "late", 0, 100)
	eventually(t, 10*time.Second, func() string {
		if got := sb.Datalet.Engine("").Len(); got != n+100 {
			return fmt.Sprintf("standby holds %d/%d keys", got, n+100)
		}
		return ""
	})
}

// TestJoinNodeAAECFloorTrimmed: a shard that was migrated into carries a
// floor record in its stream, and every version it mints is lifted by the
// adjustment that record set. Once the log has trimmed the record, a
// replica joining the shard cannot replay it; it inherits the adjustment
// with its peer's cursor. Its versions must match its peers' — a replica
// that restarted the adjustment at zero would stamp lower versions on the
// same offsets, and lose post-migration writes to migrated history.
func TestJoinNodeAAECFloorTrimmed(t *testing.T) {
	c := startCluster(t, Options{
		Mode:              aaecMode,
		Shards:            2,
		Replicas:          2,
		Standbys:          1,
		HeartbeatTimeout:  400 * time.Millisecond,
		LogSegmentEntries: smallLogSegment,
	})
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Inflate the source streams' offsets, and with them the migrated
	// versions the floor has to clear.
	for round := 0; round < 3; round++ {
		putRange(t, cli, nil, "key", 0, 300)
	}
	if err := c.JoinNode(0); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	joined := c.Shards[2]
	stream := "shard-j1"
	// Push the joined shard's stream past its retention window.
	for round := 0; round < 2; round++ {
		putRange(t, cli, nil, "key", 0, 300)
	}
	oldest, tail := streamBounds(t, c, stream)
	if oldest == 0 {
		t.Fatalf("stream %s still holds its floor record (tail %d)", stream, tail)
	}

	c.KillNode(2, 1)
	admin, err := c.Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	eventually(t, 15*time.Second, func() string {
		m, err := admin.GetMap()
		if err != nil {
			return err.Error()
		}
		for _, sh := range m.Shards {
			for _, r := range sh.Replicas {
				if sh.ID == stream && r.ID == "standby-0" && !r.Recovering {
					return ""
				}
			}
		}
		return "standby has not joined " + stream
	})
	// Writes after the join: sequenced on the trimmed stream, applied by
	// the new replica under the adjustment it inherited.
	for i := 0; i < 300; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		if err := cli.Put("", k, []byte("final")); err != nil {
			t.Fatal(err)
		}
	}
	peer, sb := joined[0].Datalet.Engine(""), c.Standbys[0].Datalet.Engine("")
	eventually(t, 10*time.Second, func() string {
		if peer.Len() == 0 || peer.Len() != sb.Len() {
			return fmt.Sprintf("peer holds %d keys, new replica %d", peer.Len(), sb.Len())
		}
		for i := 0; i < 300; i++ {
			k := []byte(fmt.Sprintf("key-%05d", i))
			pv, pver, pok, _ := peer.AppendGet(nil, k)
			sv, sver, sok, _ := sb.AppendGet(nil, k)
			if pok != sok || pver != sver || string(pv) != string(sv) {
				return fmt.Sprintf("%s: peer (%q, v%d, %v), new replica (%q, v%d, %v)", k, pv, pver, pok, sv, sver, sok)
			}
			if pok && string(pv) != "final" {
				return fmt.Sprintf("%s: post-migration write lost to %q", k, pv)
			}
		}
		return ""
	})
}

// TestAAECMultiPutConverges: one writer per controlet sends MultiPuts of
// the same keys concurrently, each batch sequenced by one log Append; once
// they stop, every replica holds the same value and version of every key,
// at or above the highest version any writer was acked for it.
func TestAAECMultiPutConverges(t *testing.T) {
	c := startCluster(t, Options{Mode: aaecMode, Shards: 1, Replicas: 3, DisableFailover: true})
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("ck%02d", i))
	}
	var mu sync.Mutex
	acked := map[string]uint64{}
	var wg sync.WaitGroup
	for w, pair := range c.Shards[0] {
		raw, err := datalet.Dial(c.Net, pair.Controlet.DataAddr(), c.Codec)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		wg.Add(1)
		go func(w int, raw *datalet.Client) {
			defer wg.Done()
			var resp wire.Response
			for i := 0; i < 50; i++ {
				req := wire.Request{Op: wire.OpMPut}
				for _, k := range keys {
					req.Pairs = append(req.Pairs, wire.KV{Key: k, Value: []byte(fmt.Sprintf("w%d-%d", w, i))})
				}
				if err := raw.Do(&req, &resp); err != nil || resp.Status != wire.StatusOK || len(resp.Statuses) != len(keys) {
					t.Errorf("mput via controlet %d: %v %s %s", w, err, resp.Status, resp.Err)
					return
				}
				mu.Lock()
				for j, st := range resp.Statuses {
					if st == wire.StatusOK {
						acked[string(keys[j])] = max(acked[string(keys[j])], resp.Pairs[j].Version)
					}
				}
				mu.Unlock()
			}
		}(w, raw)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	type rec struct {
		value   string
		version uint64
	}
	var last string
	deadline := time.Now().Add(10 * time.Second)
	for {
		last = ""
		for _, k := range keys {
			var first rec
			for r, p := range c.Shards[0] {
				v, ver, ok, err := p.Datalet.Engine("").AppendGet(nil, k)
				got := rec{string(v), ver}
				switch {
				case err != nil || !ok:
					last = fmt.Sprintf("%s missing on replica %d (%v)", k, r, err)
				case ver < acked[string(k)]:
					last = fmt.Sprintf("%s at version %d on replica %d, below its acked %d", k, ver, r, acked[string(k)])
				case r > 0 && got != first:
					last = fmt.Sprintf("%s is %+v on replica %d, %+v on replica 0", k, got, r, first)
				}
				if r == 0 {
					first = got
				}
			}
		}
		if last == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged: %s", last)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
