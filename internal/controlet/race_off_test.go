//go:build !race

package controlet

const raceEnabled = false
