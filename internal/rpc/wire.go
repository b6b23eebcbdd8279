package rpc

import (
	"encoding/binary"
	"errors"
)

// Wire is implemented (on the pointer type) by messages that encode
// themselves instead of going through encoding/json. AppendWire appends the
// encoding to dst; ParseWire replaces the receiver with the decoding of
// src, which must be consumed exactly. src is a frame buffer that is reused
// once the call is over: a server-side args value may alias it for the
// duration of its handler, anything kept longer must be copied.
type Wire interface {
	AppendWire(dst []byte) []byte
	ParseWire(src []byte) error
}

// Helpers for writing Wire codecs: integers are varints, strings and byte
// slices are length-prefixed. A message is a fixed sequence of fields, so a
// codec is one Append* call per field in AppendWire and the matching
// WireReader call per field in ParseWire, closed by Done.

// AppendWireBytes appends b with a uvarint length prefix.
func AppendWireBytes[T ~string | ~[]byte](dst []byte, b T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// errWireMalformed is what WireReader.Done reports for a payload that was
// truncated, over-long or otherwise not a valid encoding.
var errWireMalformed = errors.New("rpc: malformed wire payload")

// WireReader is a cursor over a Wire payload. A malformed field makes every
// later read return zero values; Done reports it, so codecs check once.
type WireReader struct {
	buf []byte
	bad bool
}

// NewWireReader starts reading at the front of src.
func NewWireReader(src []byte) WireReader { return WireReader{buf: src} }

// Uvarint reads an unsigned varint.
func (r *WireReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.bad, r.buf = true, nil
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *WireReader) Varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.bad, r.buf = true, nil
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Bytes reads a length-prefixed byte string. The result aliases the
// payload, with its capacity clipped to its length.
func (r *WireReader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.buf)) {
		r.bad, r.buf = true, nil
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Count reads an element count and checks it against the bytes left, every
// element taking at least min of them — so a hostile count cannot make the
// caller allocate more than the payload could ever fill.
func (r *WireReader) Count(min int) int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)/min) {
		r.bad, r.buf = true, nil
		return 0
	}
	return int(n)
}

// Done reports whether the payload was well-formed and fully consumed.
func (r *WireReader) Done() error {
	if r.bad || len(r.buf) != 0 {
		return errWireMalformed
	}
	return nil
}
