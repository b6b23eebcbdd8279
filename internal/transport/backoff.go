package transport

import (
	"math/rand/v2"
	"time"
)

// The pause before re-dial n grows from BackoffBase by doubling, is capped
// at BackoffMax and jittered into [d/2, d], so the clients of a failed peer
// do not dial it, or its successor, in step. One definition for both planes:
// rsm.Client between the attempts of a control call, datalet.Link between
// the dials of a data-path address that is down.
const (
	BackoffBase = 10 * time.Millisecond
	BackoffMax  = 500 * time.Millisecond
)

// Backoff returns the pause before retry n (0 is the first retry).
func Backoff(n int) time.Duration {
	d := BackoffBase
	for i := 0; i < n && d < BackoffMax; i++ {
		d *= 2
	}
	if d > BackoffMax {
		d = BackoffMax
	}
	return d/2 + rand.N(d/2+1)
}
