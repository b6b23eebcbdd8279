package topology

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// The keys of one shard spread over every slot, even though the ring places
// them by the same hash.
func TestSlotOfSpreadsEachShard(t *testing.T) {
	m := testMap(2, 3, HashPartitioner)
	ring := BuildRing(m)
	var used [2][Slots]int
	for i := 0; i < 40000; i++ {
		key := []byte(fmt.Sprintf("user%012d", i))
		used[m.ShardFor(key, ring)][SlotOf(key)]++
	}
	for si := range used {
		for slot, n := range used[si] {
			if n == 0 {
				t.Fatalf("shard %d: slot %d never used", si, slot)
			}
		}
	}
}

func TestSlotOwner(t *testing.T) {
	shard := testMap(1, 3, HashPartitioner).Shards[0]
	owned := map[string]int{}
	for slot := 0; slot < Slots; slot++ {
		a, b := shard.SlotOwner(slot), shard.SlotOwner(slot)
		if a.ID != b.ID {
			t.Fatalf("slot %d: owner %s then %s", slot, a.ID, b.ID)
		}
		owned[a.ID]++
	}
	for _, n := range shard.Replicas {
		if owned[n.ID] < Slots/6 {
			t.Fatalf("owner share %v: %s owns %d of %d slots", owned, n.ID, owned[n.ID], Slots)
		}
	}

	// Rendezvous: a replica leaving moves its own slots and no others.
	gone := shard.Replicas[1].ID
	smaller := Shard{ID: shard.ID, Replicas: []Node{shard.Replicas[0], shard.Replicas[2]}}
	recovering := Shard{ID: shard.ID, Replicas: append([]Node(nil), shard.Replicas...)}
	recovering.Replicas[1].Recovering = true
	for slot := 0; slot < Slots; slot++ {
		before := shard.SlotOwner(slot).ID
		for _, after := range []string{smaller.SlotOwner(slot).ID, recovering.SlotOwner(slot).ID} {
			if after == gone || (before != gone && after != before) {
				t.Fatalf("slot %d: owner %s → %s after %s left", slot, before, after, gone)
			}
		}
	}

	// Every replica recovering: the owner is still one of them.
	for i := range recovering.Replicas {
		recovering.Replicas[i].Recovering = true
	}
	if got := recovering.SlotOwner(7).ID; got != shard.SlotOwner(7).ID {
		t.Fatalf("all recovering: owner %s, want %s", got, shard.SlotOwner(7).ID)
	}
}

func TestRouteRows(t *testing.T) {
	for _, c := range []struct {
		mode Mode
		want Route
	}{
		{Mode{MS, Strong}, Route{Write: ToHead, Read: ToReadTail, Strong: true, Direct: true}},
		{Mode{MS, Eventual}, Route{Write: ToHead, Read: ToHead, Direct: true}},
		{Mode{AA, Strong}, Route{Write: ToOwner, Read: ToOwner, Strong: true}},
		{Mode{AA, Eventual}, Route{Write: ToAny, Read: ToAny}},
	} {
		if got := c.mode.Route(); got != c.want {
			t.Errorf("%s: %+v, want %+v", c.mode, got, c.want)
		}
	}
}

func TestPick(t *testing.T) {
	shard := testMap(1, 3, HashPartitioner).Shards[0]
	shard.Replicas[2].Recovering = true
	key := []byte("k")
	if got := shard.Pick(ToHead, key, nil).ID; got != "s0-r0" {
		t.Fatalf("head = %s", got)
	}
	if got := shard.Pick(ToReadTail, key, nil).ID; got != "s0-r1" {
		t.Fatalf("read tail = %s (the recovering tail must be skipped)", got)
	}
	if got, want := shard.Pick(ToOwner, key, nil).ID, shard.SlotOwner(SlotOf(key)).ID; got != want {
		t.Fatalf("owner = %s, want %s", got, want)
	}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[shard.Pick(ToAny, key, rand.IntN).ID] = true
	}
	if len(seen) != 2 || seen["s0-r2"] {
		t.Fatalf("any picked %v, want both readable replicas and never the recovering one", seen)
	}
	// A keyless request (a scan, table DDL) has no slot owner: it spreads.
	seen = map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[shard.Pick(ToOwner, nil, rand.IntN).ID] = true
	}
	if len(seen) != 2 || seen["s0-r2"] {
		t.Fatalf("owner of no key picked %v, want both readable replicas", seen)
	}
}

func TestReadTarget(t *testing.T) {
	rt := Mode{MS, Strong}.Route()
	if got := rt.ReadTarget(true); got != ToReadTail {
		t.Fatalf("strong read goes to %d, want the read tail", got)
	}
	if got := rt.ReadTarget(false); got != ToAny {
		t.Fatalf("eventual read goes to %d, want any replica", got)
	}
}
