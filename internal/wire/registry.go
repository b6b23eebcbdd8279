package wire

import (
	"bufio"
	"fmt"
	"sort"
	"sync"
)

// Codec encodes and decodes the data-path message pair. Implementations must
// be safe for use by one reader and one writer goroutine concurrently but
// need not support concurrent writers.
type Codec interface {
	Name() string
	WriteRequest(w *bufio.Writer, req *Request) error
	ReadRequest(r *bufio.Reader, req *Request) error
	WriteResponse(w *bufio.Writer, resp *Response) error
	ReadResponse(r *bufio.Reader, resp *Response) error
}

// BufferedCodec is an optional Codec extension for write coalescing: the
// Encode methods serialize a message into w WITHOUT flushing, so a pipelined
// sender can pack many messages into one syscall and flush once when its
// send queue goes idle (or a batch threshold hits). WriteRequest/WriteResponse
// remain "encode then flush" for lock-step callers. Both in-tree codecs
// implement it; callers type-assert and fall back to the flushing methods.
type BufferedCodec interface {
	Codec
	EncodeRequest(w *bufio.Writer, req *Request) error
	EncodeResponse(w *bufio.Writer, resp *Response) error
}

var (
	codecMu sync.RWMutex
	codecs  = map[string]Codec{}
)

// RegisterCodec adds a codec to the registry; it panics on duplicates, which
// indicate a programming error at init time.
func RegisterCodec(c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, dup := codecs[c.Name()]; dup {
		panic("wire: duplicate codec " + c.Name())
	}
	codecs[c.Name()] = c
}

// LookupCodec returns the codec registered under name.
func LookupCodec(name string) (Codec, error) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecs[name]
	if !ok {
		return nil, fmt.Errorf("wire: unknown codec %q", name)
	}
	return c, nil
}

// CodecOr returns the codec registered under name, and def when name is
// empty, names def itself (no registry lock on that path: a client asks this
// on every direct read) or is not registered — "the protocol the cluster
// map lists for this datalet, else mine".
func CodecOr(name string, def Codec) Codec {
	if name == "" || name == def.Name() {
		return def
	}
	if c, err := LookupCodec(name); err == nil {
		return c
	}
	return def
}

// Codecs returns the sorted names of all registered codecs.
func Codecs() []string {
	codecMu.RLock()
	defer codecMu.RUnlock()
	names := make([]string, 0, len(codecs))
	for n := range codecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterCodec(BinaryCodec{})
	RegisterCodec(TextCodec{})
}
