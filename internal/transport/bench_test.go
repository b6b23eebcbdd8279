package transport

import (
	"io"
	"testing"
)

// roundTripFrame is the size of a tcp-read95 GET on the wire: binary header,
// 16-byte key, no value.
const roundTripFrame = 73

// BenchmarkRoundTrip is the transport layer benchmark: one 73-byte frame to
// an echoing peer and back, lock-step on one connection, per network. It is
// what one hop of the data path costs before any protocol work — inproc is
// two ring copies and two goroutine handoffs, tcp and unix each a write and
// a read syscall per side — and the yardstick for choosing which network a
// hop rides. No network may allocate per round trip.
func BenchmarkRoundTrip(b *testing.B) {
	for _, name := range []string{"inproc", "tcp", "unix"} {
		b.Run(name, func(b *testing.B) {
			n, err := Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			l, err := n.Listen(listenAddr(b, n))
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				buf := make([]byte, roundTripFrame)
				for {
					if _, err := io.ReadFull(c, buf); err != nil {
						return
					}
					if _, err := c.Write(buf); err != nil {
						return
					}
				}
			}()
			c, err := n.Dial(l.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			frame := make([]byte, roundTripFrame)
			trip := func() {
				if _, err := c.Write(frame); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(c, frame); err != nil {
					b.Fatal(err)
				}
			}
			// Asserted apart from the timed loop, whose b.N can be 1.
			if per := testing.AllocsPerRun(1000, trip); per != 0 {
				b.Fatalf("%s: %.0f allocs per round trip, want 0", name, per)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trip()
			}
		})
	}
}
