//go:build race

package controlet

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so allocation counts of pooled paths mean nothing.
const raceEnabled = true
