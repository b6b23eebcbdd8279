package topology

// Where a request for a shard goes. A mode's routing is one Route row,
// read by clients when they pick a target and by controlets when they relay
// for one, so the two cannot disagree on who owns what.

// Slots is the number of slots each shard's key space is split into. Under
// AA+SC a slot, not a key, is what the map gives an owner, so a map change
// moves at most Slots owners per shard whatever the key count.
const Slots = 256

// SlotOf returns key's slot: the low bits of the key's hash (the ring
// places keys by the high ones, so the keys of one shard still spread over
// every slot).
func SlotOf(key []byte) int { return int(hash64Bytes(key) % Slots) }

// SlotOwner returns the replica that owns slot: of the shard's
// non-recovering replicas (all of them if every one is recovering), the one
// whose ID scores highest against the slot — rendezvous hashing, so every
// node holding the same map agrees, and a replica leaving the shard moves
// only the slots it owned.
func (s Shard) SlotOwner(slot int) Node {
	best, bestScore := -1, uint64(0)
	for pass := 0; pass < 2 && best < 0; pass++ {
		for i := range s.Replicas {
			if pass == 0 && s.Replicas[i].Recovering {
				continue
			}
			if sc := slotScore(s.Replicas[i].ID, slot); best < 0 || sc > bestScore {
				best, bestScore = i, sc
			}
		}
	}
	return s.Replicas[best]
}

func slotScore(id string, slot int) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * fnvPrime
	}
	return mix64(h ^ uint64(slot)*0x9e3779b97f4a7c15)
}

// Target names the replica of a shard a request goes to.
type Target uint8

const (
	// ToHead is the first replica: the MS master, the chain head.
	ToHead Target = iota
	// ToReadTail is the last non-recovering replica: the MS+SC chain tail.
	ToReadTail
	// ToAny is any non-recovering replica, the caller's pick.
	ToAny
	// ToOwner is the owner of the key's slot (SlotOwner).
	ToOwner
)

// Route is one mode's routing row.
type Route struct {
	// Write is where writes go.
	Write Target
	// Read is who serves strong reads. Eventual reads go to any readable
	// replica in every mode, and those are the reads a client may hedge.
	Read Target
	// Strong is what a read at the default level gets.
	Strong bool
	// Direct: a strong read may skip the Read replica's controlet and be
	// answered by its datalet, whose local state is already the
	// linearizable answer. (Eventual reads always may.)
	Direct bool
}

// ReadTarget is who serves a read under the row: the Read replica for a
// strong read (wire.Level.Strong resolves a request's level), any readable
// replica otherwise.
func (r Route) ReadTarget(strong bool) Target {
	if strong {
		return r.Read
	}
	return ToAny
}

// Route returns the mode's routing row.
func (m Mode) Route() Route {
	switch {
	case m.Topology == AA && m.Consistency == Strong:
		// A slot's owner orders its keys' writes and serves their strong
		// reads, so they go there; another replica relays them once.
		return Route{Write: ToOwner, Read: ToOwner, Strong: true}
	case m.Topology == AA:
		return Route{Write: ToAny, Read: ToAny}
	case m.Consistency == Strong:
		return Route{Write: ToHead, Read: ToReadTail, Strong: true, Direct: true}
	default:
		// MS+EC: the master holds the freshest copy.
		return Route{Write: ToHead, Read: ToHead, Direct: true}
	}
}

// Pick returns the replica t names for key. A nil key — a request that is
// not one key's, such as a scan or table DDL — has no slot, so ToOwner
// picks as ToAny for it. draw(n) returns a uniform integer in [0, n); only
// ToAny calls it.
func (s Shard) Pick(t Target, key []byte, draw func(int) int) Node {
	if t == ToOwner && key == nil {
		t = ToAny
	}
	switch t {
	case ToReadTail:
		return s.ReadTail()
	case ToOwner:
		return s.SlotOwner(SlotOf(key))
	case ToAny:
		n := 0
		for i := range s.Replicas {
			if !s.Replicas[i].Recovering {
				n++
			}
		}
		if n == 0 {
			return s.Replicas[draw(len(s.Replicas))]
		}
		k := draw(n)
		for i := range s.Replicas {
			if s.Replicas[i].Recovering {
				continue
			}
			if k == 0 {
				return s.Replicas[i]
			}
			k--
		}
	}
	return s.Head()
}
