//go:build race

package models

// raceEnabled gates the zero-allocation assertions: race-detector
// instrumentation performs its own heap allocations, which AllocsPerRun
// attributes to the measured function.
const raceEnabled = true
