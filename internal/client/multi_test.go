package client

import (
	"fmt"
	"math/rand"
	"testing"

	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// oracleBucketKey is where a bucket's frame goes under the map-based
// grouping bucketByShard replaced: its shard and, when the mode sends each
// key to its slot's owner, that owner.
type oracleBucketKey struct {
	shard int
	owner string
}

// oracleBuckets is that grouping, kept as the reference bucketByShard must
// agree with: one map entry per destination, positions appended in caller
// order.
func oracleBuckets(m *topology.Map, keys [][]byte, write bool, level wire.Level) map[oracleBucketKey][]int {
	ring := topology.BuildRing(m)
	rt := m.Mode.Route()
	byOwner := rt.Write == topology.ToOwner
	if !write {
		byOwner = rt.Read == topology.ToOwner && level.Strong(rt.Strong)
	}
	out := make(map[oracleBucketKey][]int)
	for i, k := range keys {
		bk := oracleBucketKey{shard: m.ShardFor(k, ring)}
		if byOwner {
			bk.owner = m.Shards[bk.shard].SlotOwner(topology.SlotOf(k)).ID
		}
		out[bk] = append(out[bk], i)
	}
	return out
}

// bucketMap builds a map of shards×3 replicas in mode; range partitioning
// splits the one-letter key space evenly.
func bucketMap(mode topology.Mode, shards int, part topology.Partitioner) *topology.Map {
	m := &topology.Map{Epoch: 1, Mode: mode, Partitioner: part}
	for s := 0; s < shards; s++ {
		sh := topology.Shard{ID: fmt.Sprintf("s%d", s)}
		for r := 0; r < 3; r++ {
			id := fmt.Sprintf("s%d-r%d", s, r)
			sh.Replicas = append(sh.Replicas, topology.Node{ID: id, ControletAddr: "c-" + id, DataletAddr: "d-" + id})
		}
		m.Shards = append(m.Shards, sh)
		if part == topology.RangePartitioner && s > 0 {
			m.RangeSplits = append(m.RangeSplits, []byte{byte('a' + 26*s/shards)})
		}
	}
	return m
}

// TestBucketByShard checks the counting-pass grouping against the
// map-based oracle: 1–4 shards, hash and range partitioning, MS+EC reads
// and writes, AA+SC owner buckets for writes and strong reads (and shard
// buckets for its eventual reads), batches with duplicate keys. Every
// position lands in exactly one bucket, in caller order, beside its own
// key; buckets come in the order of their first key; and each bucket holds
// exactly the positions the oracle sends to its destination.
func TestBucketByShard(t *testing.T) {
	msec := topology.Mode{Topology: topology.MS, Consistency: topology.Eventual}
	aasc := topology.Mode{Topology: topology.AA, Consistency: topology.Strong}
	cases := []struct {
		mode  topology.Mode
		write bool
		level wire.Level
	}{
		{msec, false, wire.LevelDefault},
		{msec, true, wire.LevelDefault},
		{aasc, true, wire.LevelDefault},
		{aasc, false, wire.LevelDefault},
		{aasc, false, wire.LevelStrong},
		{aasc, false, wire.LevelEventual},
	}
	rng := rand.New(rand.NewSource(1))
	for shards := 1; shards <= 4; shards++ {
		for _, part := range []topology.Partitioner{topology.HashPartitioner, topology.RangePartitioner} {
			for _, tc := range cases {
				m := bucketMap(tc.mode, shards, part)
				c := newStaticClient(t, m)
				for trial := 0; trial < 50; trial++ {
					// Few distinct keys in a long batch force duplicates.
					n := 1 + rng.Intn(64)
					distinct := 1 + rng.Intn(n)
					keys := make([][]byte, n)
					for i := range keys {
						keys[i] = []byte(fmt.Sprintf("%c-%d", 'a'+rng.Intn(26), rng.Intn(distinct)))
					}
					name := fmt.Sprintf("%s/%s/shards=%d/write=%v/level=%v/trial=%d", tc.mode, part, shards, tc.write, tc.level, trial)
					checkBuckets(t, name, c, m, keys, tc.write, tc.level)
				}
			}
		}
	}
}

func checkBuckets(t *testing.T, name string, c *Client, m *topology.Map, keys [][]byte, write bool, level wire.Level) {
	t.Helper()
	got, err := c.bucketByShard(keys, write, level)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := oracleBuckets(m, keys, write, level)
	if len(got) != len(want) {
		t.Fatalf("%s: %d buckets, oracle has %d", name, len(got), len(want))
	}
	ring := topology.BuildRing(m)
	rt := m.Mode.Route()
	byOwner := rt.Write == topology.ToOwner
	if !write {
		byOwner = rt.Read == topology.ToOwner && level.Strong(rt.Strong)
	}
	seen := make([]int, len(keys))
	lastFirst := -1
	for bi, b := range got {
		if len(b.idxs) == 0 || len(b.keys) != len(b.idxs) {
			t.Fatalf("%s: bucket %d has %d keys and %d positions", name, bi, len(b.keys), len(b.idxs))
		}
		if b.idxs[0] <= lastFirst {
			t.Fatalf("%s: bucket %d starts at position %d, after a bucket starting at %d", name, bi, b.idxs[0], lastFirst)
		}
		lastFirst = b.idxs[0]
		for j, idx := range b.idxs {
			if j > 0 && idx <= b.idxs[j-1] {
				t.Fatalf("%s: bucket %d positions out of caller order: %v", name, bi, b.idxs)
			}
			if string(b.keys[j]) != string(keys[idx]) {
				t.Fatalf("%s: bucket %d pairs position %d with key %q, want %q", name, bi, idx, b.keys[j], keys[idx])
			}
			seen[idx]++
		}
		k := b.keys[0]
		bk := oracleBucketKey{shard: m.ShardFor(k, ring)}
		if byOwner {
			bk.owner = m.Shards[bk.shard].SlotOwner(topology.SlotOf(k)).ID
		}
		if fmt.Sprint(b.idxs) != fmt.Sprint(want[bk]) {
			t.Fatalf("%s: bucket for %+v holds %v, oracle %v", name, bk, b.idxs, want[bk])
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("%s: position %d appears in %d buckets", name, i, n)
		}
	}
}
