package dlm

import (
	"encoding/binary"
	"errors"

	"bespokv/internal/rpc"
)

// rpc.Wire codecs of the per-operation messages: every AA+SC read and write
// pays a Lock and an Unlock, so they skip encoding/json. Fields in
// declaration order; strings length-prefixed, integers varints.

// parseMode maps the two valid modes back to their constants without
// allocating; anything else round-trips verbatim so the handler's
// "bad mode" error still names it.
func parseMode(b []byte) Mode {
	switch string(b) {
	case string(Read):
		return Read
	case string(Write):
		return Write
	}
	return Mode(b)
}

// wireCall is a LockArgs or UnlockArgs payload decoded in place: key and
// owner alias the payload. It is how the server reads both messages, and
// what their ParseWire methods are built on, so there is one decoder.
type wireCall struct {
	key, owner    []byte
	mode          Mode
	ttlMs, waitMs int
}

func parseCall(src []byte, lock bool) (wireCall, error) {
	r := rpc.NewWireReader(src)
	q := wireCall{key: r.Bytes(), owner: r.Bytes(), mode: parseMode(r.Bytes())}
	if lock {
		q.ttlMs, q.waitMs = int(r.Varint()), int(r.Varint())
	}
	return q, r.Done()
}

// AppendWire implements rpc.Wire.
func (a *LockArgs) AppendWire(dst []byte) []byte {
	dst = rpc.AppendWireBytes(dst, a.Key)
	dst = rpc.AppendWireBytes(dst, a.Owner)
	dst = rpc.AppendWireBytes(dst, a.Mode)
	dst = binary.AppendVarint(dst, int64(a.TTLMs))
	return binary.AppendVarint(dst, int64(a.WaitMs))
}

// ParseWire implements rpc.Wire.
func (a *LockArgs) ParseWire(src []byte) error {
	q, err := parseCall(src, true)
	*a = LockArgs{Key: string(q.key), Owner: string(q.owner), Mode: q.mode, TTLMs: q.ttlMs, WaitMs: q.waitMs}
	return err
}

// AppendWire implements rpc.Wire.
func (p *LockReply) AppendWire(dst []byte) []byte {
	return binary.AppendUvarint(dst, p.Token)
}

// ParseWire implements rpc.Wire.
func (p *LockReply) ParseWire(src []byte) error {
	r := rpc.NewWireReader(src)
	*p = LockReply{Token: r.Uvarint()}
	return r.Done()
}

// AppendWire implements rpc.Wire.
func (a *UnlockArgs) AppendWire(dst []byte) []byte {
	dst = rpc.AppendWireBytes(dst, a.Key)
	dst = rpc.AppendWireBytes(dst, a.Owner)
	return rpc.AppendWireBytes(dst, a.Mode)
}

// ParseWire implements rpc.Wire.
func (a *UnlockArgs) ParseWire(src []byte) error {
	q, err := parseCall(src, false)
	*a = UnlockArgs{Key: string(q.key), Owner: string(q.owner), Mode: q.mode}
	return err
}

// A lease-table command lays its fields at fixed offsets, so that Apply
// reads them with no decoding loop: op, the leader's clock delta and the
// lease length (8 bytes each, little-endian), the mode's byte, the key's
// length (4 bytes), the key, then the owner to the end.
const cmdHeader = 1 + 8 + 8 + 1 + 4

var errBadCmd = errors.New("dlm: malformed command")

func appendCmd(dst []byte, op byte, delta int64, l *lockCall) []byte {
	var mode byte
	if l.mode != "" {
		mode = l.mode[0]
	}
	dst = append(dst, op)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(delta))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(l.ttl))
	dst = append(dst, mode)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(l.key)))
	dst = append(dst, l.key...)
	return append(dst, l.owner...)
}

// parseCmd reads a lease-table command in place: key and owner alias it.
func parseCmd(src []byte) (op byte, delta, ttl int64, mode Mode, key, owner []byte, err error) {
	if len(src) < cmdHeader {
		return 0, 0, 0, "", nil, nil, errBadCmd
	}
	klen := int64(binary.LittleEndian.Uint32(src[18:]))
	if klen > int64(len(src)-cmdHeader) {
		return 0, 0, 0, "", nil, nil, errBadCmd
	}
	switch src[17] {
	case Read[0]:
		mode = Read
	case Write[0]:
		mode = Write
	}
	return src[0], int64(binary.LittleEndian.Uint64(src[1:])), int64(binary.LittleEndian.Uint64(src[9:])),
		mode, src[cmdHeader : cmdHeader+klen], src[cmdHeader+klen:], nil
}

// appendWire encodes the table as its checkpoint: clock, next token and
// record count, then per record its key, writer, writer expiry, token and
// readers (a count, then owner and expiry each).
func (t *lockTable) appendWire(dst []byte) []byte {
	dst = binary.AppendVarint(dst, t.Clock)
	dst = binary.AppendUvarint(dst, t.NextToken)
	dst = binary.AppendUvarint(dst, uint64(len(t.Locks)))
	for key, st := range t.Locks {
		dst = rpc.AppendWireBytes(dst, key)
		dst = rpc.AppendWireBytes(dst, st.Writer)
		dst = binary.AppendVarint(dst, st.WriterExp)
		dst = binary.AppendUvarint(dst, st.Token)
		dst = binary.AppendUvarint(dst, uint64(len(st.Readers)))
		for owner, exp := range st.Readers {
			dst = rpc.AppendWireBytes(dst, owner)
			dst = binary.AppendVarint(dst, exp)
		}
	}
	return dst
}

// parseLockTable decodes a checkpoint (empty: a fresh table). The bytes
// come from disk or a peer, so every count is checked against what is left
// of them before anything is allocated for it.
func parseLockTable(src []byte) (lockTable, error) {
	t := newLockTable()
	if len(src) == 0 {
		return t, nil
	}
	r := rpc.NewWireReader(src)
	t.Clock, t.NextToken = r.Varint(), r.Uvarint()
	for n := r.Count(5); n > 0; n-- { // a record is at least five one-byte fields
		st := &leaseState{key: string(r.Bytes()), Writer: string(r.Bytes()), WriterExp: r.Varint(), Token: r.Uvarint()}
		if k := r.Count(2); k > 0 {
			st.Readers = make(map[string]int64, k)
			for ; k > 0; k-- {
				st.Readers[string(r.Bytes())] = r.Varint()
			}
		}
		t.Locks[st.key] = st
	}
	return t, r.Done()
}
