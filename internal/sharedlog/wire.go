package sharedlog

import (
	"encoding/binary"

	"bespokv/internal/rpc"
)

// rpc.Wire codecs of the per-operation messages: every AA+EC write is an
// Append and every replica applies it through a Read, so they skip
// encoding/json (and with it base64 for the entries). Fields in declaration
// order; strings and entries length-prefixed, integers varints.

// AppendWire implements rpc.Wire.
func (a *AppendArgs) AppendWire(dst []byte) []byte {
	dst = rpc.AppendWireBytes(dst, a.Stream)
	dst = binary.AppendUvarint(dst, uint64(len(a.Entries)))
	for _, e := range a.Entries {
		dst = rpc.AppendWireBytes(dst, e)
	}
	return dst
}

// ParseWire implements rpc.Wire. Entries alias src: the server copies them
// into a segment arena before its handler returns.
func (a *AppendArgs) ParseWire(src []byte) error {
	r := rpc.NewWireReader(src)
	*a = AppendArgs{Stream: string(r.Bytes())}
	if n := r.Count(1); n > 0 {
		a.Entries = make([][]byte, n)
		for i := range a.Entries {
			a.Entries[i] = r.Bytes()
		}
	}
	return r.Done()
}

// AppendWire implements rpc.Wire.
func (p *AppendReply) AppendWire(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, p.First)
	return binary.AppendUvarint(dst, p.Next)
}

// ParseWire implements rpc.Wire.
func (p *AppendReply) ParseWire(src []byte) error {
	r := rpc.NewWireReader(src)
	*p = AppendReply{First: r.Uvarint(), Next: r.Uvarint()}
	return r.Done()
}

// AppendWire implements rpc.Wire.
func (a *ReadArgs) AppendWire(dst []byte) []byte {
	dst = rpc.AppendWireBytes(dst, a.Stream)
	dst = binary.AppendUvarint(dst, a.From)
	dst = binary.AppendVarint(dst, int64(a.Max))
	return binary.AppendVarint(dst, int64(a.WaitMs))
}

// ParseWire implements rpc.Wire.
func (a *ReadArgs) ParseWire(src []byte) error {
	r := rpc.NewWireReader(src)
	*a = ReadArgs{
		Stream: string(r.Bytes()),
		From:   r.Uvarint(),
		Max:    int(r.Varint()),
		WaitMs: int(r.Varint()),
	}
	return r.Done()
}

// AppendWire implements rpc.Wire.
func (p *ReadReply) AppendWire(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, p.Next)
	dst = binary.AppendUvarint(dst, uint64(len(p.Entries)))
	for _, e := range p.Entries {
		dst = binary.AppendUvarint(dst, e.Offset)
		dst = rpc.AppendWireBytes(dst, e.Data)
	}
	return binary.AppendUvarint(dst, p.Oldest)
}

// ParseWire implements rpc.Wire. The reply outlives the frame buffer it was
// read from, so the payload is copied — once, all entries slicing the copy.
func (p *ReadReply) ParseWire(src []byte) error {
	r := rpc.NewWireReader(append([]byte(nil), src...))
	*p = ReadReply{Next: r.Uvarint()}
	if n := r.Count(2); n > 0 {
		p.Entries = make([]Entry, n)
		for i := range p.Entries {
			p.Entries[i] = Entry{Offset: r.Uvarint(), Data: r.Bytes()}
		}
	}
	p.Oldest = r.Uvarint()
	return r.Done()
}
