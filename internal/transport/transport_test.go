package transport

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func networksUnderTest(t *testing.T) []Network {
	t.Helper()
	var nets []Network
	for _, name := range []string{"tcp", "unix", "inproc"} {
		n, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	return nets
}

func listenAddr(tb testing.TB, n Network) string {
	switch n.Name() {
	case "tcp":
		return "127.0.0.1:0"
	case "unix":
		return filepath.Join(tb.TempDir(), "s")
	}
	return ""
}

func TestEchoRoundtrip(t *testing.T) {
	for _, n := range networksUnderTest(t) {
		n := n
		t.Run(n.Name(), func(t *testing.T) {
			l, err := n.Listen(listenAddr(t, n))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				io.Copy(c, c)
			}()
			c, err := n.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			msg := []byte("hello bespokv")
			if _, err := c.Write(msg); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(c, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("echo mismatch: %q", got)
			}
		})
	}
}

func TestLargeTransferIntegrity(t *testing.T) {
	for _, n := range networksUnderTest(t) {
		n := n
		t.Run(n.Name(), func(t *testing.T) {
			l, err := n.Listen(listenAddr(t, n))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			const total = 4 << 20 // 4 MiB, several ring wraps
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				buf := make([]byte, total)
				for i := range buf {
					buf[i] = byte(i * 31)
				}
				c.Write(buf)
			}()
			c, err := n.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			got := make([]byte, total)
			if _, err := io.ReadFull(c, got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != byte(i*31) {
					t.Fatalf("corruption at byte %d", i)
				}
			}
		})
	}
}

func TestDialUnboundAddressFails(t *testing.T) {
	for _, n := range networksUnderTest(t) {
		addr := "127.0.0.1:1" // reserved port, nothing listens
		switch n.Name() {
		case "inproc":
			addr = "no-such-endpoint"
		case "unix":
			addr = filepath.Join(t.TempDir(), "nobody")
		}
		if _, err := n.Dial(addr); err == nil {
			t.Fatalf("%s: dialing unbound address must fail", n.Name())
		}
	}
}

func TestAcceptAfterCloseReturnsErrClosed(t *testing.T) {
	for _, n := range networksUnderTest(t) {
		l, err := n.Listen(listenAddr(t, n))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := l.Accept()
			done <- err
		}()
		l.Close()
		if err := <-done; err != ErrClosed {
			t.Fatalf("%s: got %v, want ErrClosed", n.Name(), err)
		}
	}
}

func TestReadAfterPeerCloseSeesEOF(t *testing.T) {
	for _, n := range networksUnderTest(t) {
		n := n
		t.Run(n.Name(), func(t *testing.T) {
			l, err := n.Listen(listenAddr(t, n))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				c.Write([]byte("bye"))
				c.Close()
			}()
			c, err := n.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			got, err := io.ReadAll(c)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "bye" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestConcurrentConnections(t *testing.T) {
	for _, n := range networksUnderTest(t) {
		n := n
		t.Run(n.Name(), func(t *testing.T) {
			l, err := n.Listen(listenAddr(t, n))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				for {
					c, err := l.Accept()
					if err != nil {
						return
					}
					go func(c Conn) {
						defer c.Close()
						io.Copy(c, c)
					}(c)
				}
			}()
			const workers = 8
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c, err := n.Dial(l.Addr())
					if err != nil {
						errs <- err
						return
					}
					defer c.Close()
					msg := []byte(fmt.Sprintf("worker-%d-payload", w))
					for i := 0; i < 50; i++ {
						if _, err := c.Write(msg); err != nil {
							errs <- err
							return
						}
						got := make([]byte, len(msg))
						if _, err := io.ReadFull(c, got); err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(got, msg) {
							errs <- fmt.Errorf("worker %d echo mismatch", w)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

func TestInprocDuplicateBind(t *testing.T) {
	n, _ := Lookup("inproc")
	l, err := n.Listen("dup-bind")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := n.Listen("dup-bind"); err == nil {
		t.Fatal("duplicate bind must fail")
	}
}

func TestInprocAddrReusableAfterClose(t *testing.T) {
	n, _ := Lookup("inproc")
	l, err := n.Listen("reuse-me")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := n.Listen("reuse-me")
	if err != nil {
		t.Fatalf("address not released on close: %v", err)
	}
	l2.Close()
}

func TestLookupUnknownNetwork(t *testing.T) {
	if _, err := Lookup("rdma"); err == nil {
		t.Fatal("unknown network must error")
	}
}

// TestRingPropertyBytesPreserved drives the raw ring with random chunk
// boundaries and checks the stream is preserved byte for byte.
func TestRingPropertyBytesPreserved(t *testing.T) {
	f := func(chunks [][]byte) bool {
		r := newRing()
		var want, got bytes.Buffer
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]byte, 1024)
			for {
				n, err := r.read(buf)
				got.Write(buf[:n])
				if err != nil {
					return
				}
			}
		}()
		for _, c := range chunks {
			want.Write(c)
			if _, err := r.write(c); err != nil {
				return false
			}
		}
		r.close()
		<-done
		return bytes.Equal(want.Bytes(), got.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestInprocCloseTearsDownBacklog: conns dialed but not yet accepted when
// the listener closes must be torn down, not abandoned — an abandoned conn
// leaves its dialer blocked in its first read forever (servers that see
// their stop flag right after Accept close that one conn and stop
// accepting, so nobody else would ever touch the queue).
func TestInprocCloseTearsDownBacklog(t *testing.T) {
	n, err := Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	var conns []Conn
	for i := 0; i < 3; i++ {
		c, err := n.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i, c := range conns {
		if _, err := c.Write([]byte("req")); err == nil {
			// A write that raced the teardown into the ring is fine; the
			// read below is the call a real client blocks in.
			t.Logf("conn %d write after close succeeded (buffered)", i)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := c.Read(make([]byte, 16))
			errc <- err
		}()
		select {
		case err := <-errc:
			if err == nil {
				t.Fatalf("conn %d: read after listener close returned data, want error", i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("conn %d: read blocked after listener close — backlog conn abandoned", i)
		}
	}
}

// TestInprocDialCloseRace hammers Dial against Close: a dial must either
// succeed or report connection refused — never panic on the closed backlog.
func TestInprocDialCloseRace(t *testing.T) {
	n, err := Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		l, err := n.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if c, err := n.Dial(l.Addr()); err == nil {
					c.Close()
				}
			}()
		}
		l.Close()
		wg.Wait()
	}
}

// TestRingGrowsOnDemand: a ring starts small, grows (unwrapping wrapped
// content) only when a write finds it full, and stops at ringSize, past
// which the writer blocks for the reader as it always did.
func TestRingGrowsOnDemand(t *testing.T) {
	r := newRing()
	pattern := func(n, seed int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + seed)
		}
		return b
	}
	var want bytes.Buffer
	write := func(b []byte) {
		want.Write(b)
		if _, err := r.write(b); err != nil {
			t.Fatal(err)
		}
	}
	write(pattern(3<<10, 1))
	head := make([]byte, 2<<10)
	if n, _ := r.read(head); n != len(head) || !bytes.Equal(head, want.Next(n)) {
		t.Fatalf("first read: %d bytes", n)
	}
	write(pattern(3<<10, 2)) // wraps and fills the initial buffer
	if len(r.buf) != ringMin || r.n != ringMin {
		t.Fatalf("ring grew early: len %d, buffered %d", len(r.buf), r.n)
	}
	write(pattern(10<<10, 3)) // does not fit: grows while wrapped
	if len(r.buf) != 16<<10 {
		t.Fatalf("ring is %d bytes after a 10 KiB overflow, want 16 KiB", len(r.buf))
	}
	got := make([]byte, want.Len())
	if n, _ := r.read(got); n != len(got) || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("stream corrupted across growth (%d of %d bytes)", n, len(got))
	}

	// Past ringSize the writer waits for the reader.
	big := pattern(ringSize+4096, 4)
	done := make(chan error, 1)
	go func() {
		_, err := r.write(big)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("write of more than ringSize returned without a reader: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	got = make([]byte, len(big))
	for off := 0; off < len(got); {
		n, err := r.read(got[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := <-done; err != nil || !bytes.Equal(got, big) || len(r.buf) != ringSize {
		t.Fatalf("blocked write: err %v, ring %d bytes", err, len(r.buf))
	}
}

// TestRingStreamAcrossGrowth pushes a known byte sequence through rings
// with a concurrent reader, in chunk sizes that force growth at every step
// and in every wrap position, and checks the stream byte for byte.
func TestRingStreamAcrossGrowth(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRing()
		total := 1<<20 + rng.Intn(1<<16)
		src := make([]byte, total)
		rng.Read(src)
		got := make([]byte, 0, total)
		done := make(chan struct{})
		buf := make([]byte, 1+rng.Intn(9000))
		go func() {
			defer close(done)
			for {
				n, err := r.read(buf[:1+rand.Intn(len(buf))])
				got = append(got, buf[:n]...)
				if err != nil {
					return
				}
				if rand.Intn(8) == 0 {
					runtime.Gosched()
				}
			}
		}()
		for off := 0; off < total; {
			n := 1 + rng.Intn(3*ringMin)
			if rng.Intn(20) == 0 {
				n = 1 + rng.Intn(ringSize/2)
			}
			if n > total-off {
				n = total - off
			}
			if _, err := r.write(src[off : off+n]); err != nil {
				t.Fatal(err)
			}
			off += n
		}
		r.close()
		<-done
		if !bytes.Equal(got, src) {
			t.Fatalf("seed %d: stream corrupted (%d of %d bytes)", seed, len(got), total)
		}
	}
}

func TestBackoffBounds(t *testing.T) {
	for n := 0; n < 12; n++ {
		want := min(BackoffBase<<n, BackoffMax)
		for trial := 0; trial < 32; trial++ {
			if d := Backoff(n); d < want/2 || d > want {
				t.Fatalf("Backoff(%d) = %v outside [%v, %v]", n, d, want/2, want)
			}
		}
	}
	if Backoff(40) > BackoffMax {
		t.Fatal("Backoff exceeds its cap at high attempt counts")
	}
}
