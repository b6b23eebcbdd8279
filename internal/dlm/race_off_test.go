//go:build !race

package dlm

const raceEnabled = false
