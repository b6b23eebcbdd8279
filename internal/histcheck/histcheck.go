// Package histcheck verifies recorded operation histories against the
// consistency contracts the paper's controlets claim to preserve (§IV,
// Appendix C). It is stdlib-only.
//
// The core is a per-key linearizability checker for register histories
// (read / write / delete on a single key) in the style of Porcupine and
// Knossos: the Wing & Gong tree search with Lowe's entry-list formulation
// and memoization on (set of linearized ops, register state). Keys are
// independent registers — bespokv offers per-key ordering, no cross-key
// transactions — so a history checks as the conjunction of its per-key
// sub-histories, which keeps the (NP-hard) search tractable.
//
// Operations that never received a definite answer (client timeout during a
// partition, ambiguous error) are kept as writes that MAY take effect at
// any point from their invocation onward (End = Inf): acked-by-nobody
// writes legally surface later, and a checker that dropped them would flag
// such surfacing as a phantom. Failed reads constrain nothing and are
// dropped at record time.
//
// For EC modes linearizability is deliberately not the contract; see
// converge.go for the convergence checker.
package histcheck

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
)

// Kind is the operation type.
type Kind uint8

const (
	// OpRead observes the register (Value/Found hold the result).
	OpRead Kind = iota
	// OpWrite sets the register to Value.
	OpWrite
	// OpDelete clears the register.
	OpDelete
)

func (k Kind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return "delete"
	}
}

// Inf marks an operation whose completion was never observed: it may take
// effect at any time after its invocation.
const Inf int64 = math.MaxInt64

// Op is one invocation/response pair in a history. Times are nanoseconds on
// one monotonic clock (the Recorder's).
type Op struct {
	// Client identifies the issuing client (diagnostics only; the checker
	// does not assume per-client ordering).
	Client int
	Kind   Kind
	Key    string
	// Value is the written value (writes) or the observed value (reads).
	Value string
	// Found is the read's presence result (false = key absent).
	Found bool
	// Start and End bound the operation's real-time window. End == Inf
	// (with OK == false) marks an outcome never observed.
	Start, End int64
	// OK reports a definite, acknowledged completion.
	OK bool
}

func (o Op) String() string {
	end := "inf"
	if o.End != Inf {
		end = fmt.Sprint(o.End)
	}
	switch o.Kind {
	case OpRead:
		v := "∅"
		if o.Found {
			v = o.Value
		}
		return fmt.Sprintf("c%d read(%s)=%s [%d,%s]", o.Client, o.Key, v, o.Start, end)
	case OpWrite:
		return fmt.Sprintf("c%d write(%s,%s) [%d,%s] ok=%v", o.Client, o.Key, o.Value, o.Start, end, o.OK)
	default:
		return fmt.Sprintf("c%d delete(%s) [%d,%s] ok=%v", o.Client, o.Key, o.Start, end, o.OK)
	}
}

// Outcome is a per-key verdict.
type Outcome uint8

const (
	// Linearizable: a witness ordering exists.
	Linearizable Outcome = iota
	// NonLinearizable: the search exhausted every ordering.
	NonLinearizable
	// Unknown: the state budget ran out before a verdict.
	Unknown
)

func (o Outcome) String() string {
	switch o {
	case Linearizable:
		return "linearizable"
	case NonLinearizable:
		return "NON-LINEARIZABLE"
	default:
		return "unknown (budget exhausted)"
	}
}

// Options tunes the search.
type Options struct {
	// MaxStates bounds distinct (linearized-set, state) configurations
	// explored per key before giving up with Unknown (default 500_000).
	MaxStates int
}

func (o Options) maxStates() int {
	if o.MaxStates > 0 {
		return o.MaxStates
	}
	return 500_000
}

// KeyResult is the verdict for one key's sub-history.
type KeyResult struct {
	Key     string
	Outcome Outcome
	Ops     int
	States  int // configurations explored
	// Bad, on NonLinearizable, is the completed operation at which every
	// candidate ordering was exhausted — usually the anomalous read.
	Bad *Op
}

// Report aggregates per-key results.
type Report struct {
	Keys []KeyResult
}

// Ok reports whether every key checked linearizable.
func (r Report) Ok() bool {
	for _, k := range r.Keys {
		if k.Outcome != Linearizable {
			return false
		}
	}
	return true
}

// TotalOps sums the checked operation count across keys.
func (r Report) TotalOps() int {
	n := 0
	for _, k := range r.Keys {
		n += k.Ops
	}
	return n
}

// String summarizes the report, leading with failures.
func (r Report) String() string {
	var bad, unknown []string
	ops := 0
	for _, k := range r.Keys {
		ops += k.Ops
		switch k.Outcome {
		case NonLinearizable:
			detail := ""
			if k.Bad != nil {
				detail = ": stuck at " + k.Bad.String()
			}
			bad = append(bad, fmt.Sprintf("key %q (%d ops)%s", k.Key, k.Ops, detail))
		case Unknown:
			unknown = append(unknown, fmt.Sprintf("key %q (%d ops)", k.Key, k.Ops))
		}
	}
	if len(bad) == 0 && len(unknown) == 0 {
		return fmt.Sprintf("linearizable: %d keys, %d ops", len(r.Keys), ops)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d keys, %d ops:", len(r.Keys), ops)
	if len(bad) > 0 {
		fmt.Fprintf(&b, " NON-LINEARIZABLE %s;", strings.Join(bad, ", "))
	}
	if len(unknown) > 0 {
		fmt.Fprintf(&b, " unknown %s", strings.Join(unknown, ", "))
	}
	return b.String()
}

// Check partitions ops by key and checks each key's register history.
func Check(ops []Op, opt Options) Report {
	byKey := map[string][]Op{}
	var order []string
	for _, o := range ops {
		if _, seen := byKey[o.Key]; !seen {
			order = append(order, o.Key)
		}
		byKey[o.Key] = append(byKey[o.Key], o)
	}
	sort.Strings(order)
	var rep Report
	for _, k := range order {
		rep.Keys = append(rep.Keys, CheckKey(k, byKey[k], opt))
	}
	return rep
}

// CheckKey decides whether one key's history is linearizable as an
// initially-absent register.
func CheckKey(key string, ops []Op, opt Options) KeyResult {
	res := KeyResult{Key: key, Outcome: Linearizable, Ops: len(ops)}
	kept := make([]Op, 0, len(ops))
	for _, o := range ops {
		if o.Key != key {
			res.Outcome = NonLinearizable
			bad := o
			res.Bad = &bad
			return res
		}
		if o.Kind == OpRead && !o.OK {
			continue // unobserved reads constrain nothing
		}
		kept = append(kept, o)
	}
	res.Ops = len(kept)
	if len(kept) == 0 {
		return res
	}
	res.Outcome, res.States, res.Bad = searchRegister(kept, opt.maxStates())
	return res
}

// regState is the register's value state.
type regState struct {
	present bool
	value   string
}

// apply steps the register through op; ok=false means op's observed result
// is impossible in this state (reads only — writes and deletes always
// apply).
func apply(op *Op, s regState) (regState, bool) {
	switch op.Kind {
	case OpWrite:
		return regState{present: true, value: op.Value}, true
	case OpDelete:
		return regState{}, true
	default:
		if op.Found != s.present {
			return s, false
		}
		if op.Found && op.Value != s.value {
			return s, false
		}
		return s, true
	}
}

// entry is one event (invocation or response) in Lowe's doubly-linked
// entry list. Invocation entries carry match (their response entry);
// response entries have match == nil.
type entry struct {
	op         *Op
	idx        int
	match      *entry
	prev, next *entry
}

// buildList lays out invocation/response events in time order behind a
// sentinel head. Ties sort invocations first: two ops touching at a single
// instant count as concurrent, which is the permissive (sound-for-
// rejection) choice under coarse clocks.
func buildList(ops []Op) *entry {
	type ev struct {
		t    int64
		call bool
		idx  int
	}
	evs := make([]ev, 0, 2*len(ops))
	for i := range ops {
		evs = append(evs, ev{t: ops[i].Start, call: true, idx: i})
		evs = append(evs, ev{t: ops[i].End, call: false, idx: i})
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].call && !evs[b].call
	})
	head := &entry{}
	cur := head
	calls := make(map[int]*entry, len(ops))
	for _, e := range evs {
		n := &entry{op: &ops[e.idx], idx: e.idx, prev: cur}
		cur.next = n
		cur = n
		if e.call {
			calls[e.idx] = n
		} else {
			calls[e.idx].match = n
		}
	}
	return head
}

// lift removes e (an invocation) and its response from the list.
func lift(e *entry) {
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	}
	m := e.match
	m.prev.next = m.next
	if m.next != nil {
		m.next.prev = m.prev
	}
}

// unlift reverses lift (response first, then invocation — LIFO order keeps
// the stashed prev/next pointers valid).
func unlift(e *entry) {
	m := e.match
	m.prev.next = m
	if m.next != nil {
		m.next.prev = m
	}
	e.prev.next = e
	if e.next != nil {
		e.next.prev = e
	}
}

// bitset tracks the linearized-op set.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)   { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int) { b[i/64] &^= 1 << (i % 64) }

// cacheEnt is one memoized configuration.
type cacheEnt struct {
	bits  string // bitset words, raw
	state regState
}

func cacheKey(b bitset, s regState) (uint64, cacheEnt) {
	h := fnv.New64a()
	var raw strings.Builder
	raw.Grow(len(b) * 8)
	for _, w := range b {
		var wb [8]byte
		for i := 0; i < 8; i++ {
			wb[i] = byte(w >> (8 * i))
		}
		raw.Write(wb[:])
		h.Write(wb[:])
	}
	if s.present {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	h.Write([]byte(s.value))
	return h.Sum64(), cacheEnt{bits: raw.String(), state: s}
}

// searchRegister runs the Wing & Gong / Lowe search over one key's events.
func searchRegister(ops []Op, maxStates int) (Outcome, int, *Op) {
	head := buildList(ops)
	type frame struct {
		e    *entry
		prev regState
	}
	var stack []frame
	linearized := newBitset(len(ops))
	cache := map[uint64][]cacheEnt{}
	state := regState{}
	states := 0
	e := head.next
	for head.next != nil {
		if e == nil {
			// Walked off the end without linearizing anything new:
			// behave like hitting an unlinearizable response.
			if len(stack) == 0 {
				return NonLinearizable, states, lastPending(head)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			state = top.prev
			linearized.clear(top.e.idx)
			unlift(top.e)
			e = top.e.next
			continue
		}
		if e.match != nil { // invocation: try to linearize e.op here
			next, ok := apply(e.op, state)
			advanced := false
			if ok {
				linearized.set(e.idx)
				h, ent := cacheKey(linearized, next)
				if !cacheHas(cache, h, ent) {
					cache[h] = append(cache[h], ent)
					states++
					if states > maxStates {
						return Unknown, states, nil
					}
					stack = append(stack, frame{e: e, prev: state})
					state = next
					lift(e)
					e = head.next
					advanced = true
				} else {
					linearized.clear(e.idx)
				}
			}
			if !advanced {
				e = e.next
			}
			continue
		}
		// Response of an op not yet linearized: every op that must come
		// first has been tried; backtrack.
		if len(stack) == 0 {
			return NonLinearizable, states, e.op
		}
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		state = top.prev
		linearized.clear(top.e.idx)
		unlift(top.e)
		e = top.e.next
	}
	return Linearizable, states, nil
}

func cacheHas(cache map[uint64][]cacheEnt, h uint64, ent cacheEnt) bool {
	for _, c := range cache[h] {
		if c.bits == ent.bits && c.state == ent.state {
			return true
		}
	}
	return false
}

func lastPending(head *entry) *Op {
	var op *Op
	for e := head.next; e != nil; e = e.next {
		op = e.op
	}
	return op
}
