package dlm

import (
	"encoding/binary"

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
