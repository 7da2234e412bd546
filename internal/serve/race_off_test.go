//go:build !race

package serve

// raceEnabled gates the allocation budget; see race_on_test.go.
const raceEnabled = false
