package transport

import (
	"errors"
	"time"
)

// Accept retry backoff: a listener that fails for a reason other than being
// closed (EMFILE, ECONNABORTED, ENOBUFS) is asked again after a pause that
// doubles from acceptBackoffMin up to acceptBackoffMax, so a process out of
// descriptors neither spins nor goes deaf.
const (
	acceptBackoffMin = time.Millisecond
	acceptBackoffMax = 100 * time.Millisecond
)

// AcceptLoop hands every connection l accepts to handle, and returns when
// the listener closes or a callback returns false. Any other Accept error is
// transient as far as the loop can tell: it goes to failed (which logs and
// counts it, and returns false only when the server is stopping anyway) and
// Accept is retried after a short capped backoff. One such error used to end
// the loop, leaving a server that heartbeats as healthy and accepts nobody.
func AcceptLoop(l Listener, failed func(error) bool, handle func(Conn) bool) {
	backoff := acceptBackoffMin
	for {
		conn, err := l.Accept()
		if err == nil {
			backoff = acceptBackoffMin
			if !handle(conn) {
				return
			}
			continue
		}
		if errors.Is(err, ErrClosed) || !failed(err) {
			return
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > acceptBackoffMax {
			backoff = acceptBackoffMax
		}
	}
}
