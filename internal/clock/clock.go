// Package clock is the process's one reading of time for instants that a
// wall-clock step must not move: fences, leases and deadlines. A wall
// clock stepped backwards (an NTP correction, an operator) would stretch
// every such instant taken from it — a deposed controlet would keep
// serving past its fence — so they are all readings of the monotonic
// clock instead.
package clock

import "time"

// base anchors Mono; time.Since reads only the monotonic clock against it.
var base = time.Now()

// Mono returns the nanoseconds elapsed on the monotonic clock since the
// process started. Its instants mean nothing outside the process: what
// crosses the wire is a remaining budget, never an instant.
func Mono() int64 { return int64(time.Since(base)) }

// Of returns the Mono instant of t, a time.Now reading of this process:
// its monotonic reading decides, not its wall one.
func Of(t time.Time) int64 { return int64(t.Sub(base)) }
