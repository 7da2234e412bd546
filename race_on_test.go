//go:build race

package cbnet

// raceEnabled gates the timing budgets: race-detector instrumentation slows
// the traced and untraced paths by different amounts, so their ratio says
// nothing about the tracing overhead.
const raceEnabled = true
