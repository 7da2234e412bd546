//go:build !race

package cbnet

// raceEnabled gates the timing budgets; see race_on_test.go.
const raceEnabled = false
