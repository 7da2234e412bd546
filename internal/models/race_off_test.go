//go:build !race

package models

// raceEnabled gates the zero-allocation assertions; see race_on_test.go.
const raceEnabled = false
