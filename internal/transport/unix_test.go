package transport

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A process that dies without closing its listener leaves the socket file
// behind; the next Listen on that path must take it over.
func TestUnixListenReplacesStaleSocket(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s")
	stale, err := net.ListenUnix("unix", &net.UnixAddr{Name: path, Net: "unix"})
	if err != nil {
		t.Fatal(err)
	}
	stale.SetUnlinkOnClose(false) // what a crash does
	stale.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("stale socket file not left behind: %v", err)
	}
	if _, err := (Unix{}).Dial(path); err == nil {
		t.Fatal("dialing a stale socket file must fail")
	}

	l, err := Unix{}.Listen(path)
	if err != nil {
		t.Fatalf("listen over a stale socket file: %v", err)
	}
	defer l.Close()
	go func() {
		if c, err := l.Accept(); err == nil {
			c.Write([]byte("x"))
			c.Close()
		}
	}()
	c, err := Unix{}.Dial(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
}

// Only a dead socket is replaced: a path somebody still accepts on, or one
// that is not a socket at all, is refused and left alone.
func TestUnixListenKeepsLiveSocketAndPlainFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s")
	l, err := Unix{}.Listen(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := (Unix{}).Listen(path); err == nil {
		t.Fatal("second Listen on a live socket must fail")
	}
	if c, err := (Unix{}).Dial(path); err != nil {
		t.Fatalf("first listener no longer reachable: %v", err)
	} else {
		c.Close()
	}

	file := filepath.Join(dir, "data")
	if err := os.WriteFile(file, []byte("keep"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := (Unix{}).Listen(file); err == nil {
		t.Fatal("Listen on a regular file must fail")
	}
	if got, err := os.ReadFile(file); err != nil || string(got) != "keep" {
		t.Fatalf("regular file damaged: %q %v", got, err)
	}
}

func TestUnixCloseUnlinks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s")
	l, err := Unix{}.Listen(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode()&os.ModeSocket == 0 {
		t.Fatalf("no socket file while listening: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("socket file survived Close: %v", err)
	}
}

func TestUnixPathTooLong(t *testing.T) {
	path := filepath.Join(t.TempDir(), strings.Repeat("x", 120))
	_, err := Unix{}.Listen(path)
	if err == nil {
		t.Fatal("over-long socket path accepted")
	}
	if !strings.Contains(err.Error(), "limit is 107") {
		t.Fatalf("error does not name the limit: %v", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatal("refused Listen left a file behind")
	}
}

func TestResolve(t *testing.T) {
	for _, tc := range []struct{ in, net, addr string }{
		{"127.0.0.1:7101", "tcp", "127.0.0.1:7101"},
		{"unix:/run/d0.sock", "unix", "/run/d0.sock"},
		{UnixAddr("rel/d0"), "unix", "rel/d0"},
		{"", "tcp", ""},
	} {
		n, addr := Resolve(TCP{}, tc.in)
		if n.Name() != tc.net || addr != tc.addr {
			t.Errorf("Resolve(%q) = %s %q, want %s %q", tc.in, n.Name(), addr, tc.net, tc.addr)
		}
	}
}
