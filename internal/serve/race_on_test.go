//go:build race

package serve

// raceEnabled gates the allocation budget: under the race detector
// sync.Pool drops a share of its Puts and the instrumentation allocates, so
// a per-request count means nothing there.
const raceEnabled = true
