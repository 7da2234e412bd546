//go:build linux

package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference host is a shared one, and its cores have two speeds. For
// stretches of seconds to tens of minutes a neighbour takes the other half of
// a physical core and everything on it runs at about 0.6 of its speed: CPU
// time per image rises with wall time, no steal time is reported, and nothing
// inside a run tells the two states apart except a computation of known cost.
// Uncorrected, the median of five 4-second slices of the same code spreads by
// up to 0.40 between quartiles over ten runs, where BENCHMARK.json may allow
// 0.25 at most (REPEATABILITY.md shows both spreads). So a run measures the
// host's speed while it measures the workload, and reports timings as they
// would read at the reference speed.
//
// The probe is a fixed kernel that shares no code with the repository, a
// 96×96×96 float32 multiply-add in plain Go whose 108 KB working set lives in
// the L2 cache. Every 100 ms a thread of its own runs it once untimed, which
// brings that working set back whatever the workload evicted, and five times
// timed in thread CPU time, so that neither the workload's cache footprint
// nor waiting for a core behind its threads reads as a slow host: in a
// process that is otherwise idle the probe reads 0.965 of the reference,
// beside a thread busy with the AVX-512 GEMM 0.975, beside one busy with
// scalar Go code 0.975. It takes 2.3 ms of every 100 ms of one core, the same
// on every run.
const (
	probeDim = 96
	// probeReference is the kernel's rate, in runs per CPU second, on the
	// reference host (2-core Xeon 2.1 GHz, REPEATABILITY.md) when it has its
	// cores to itself. Only its constancy matters: on another host every
	// timing is scaled by one factor, which a comparison of two commits on
	// one host does not see.
	probeReference = 2700.0
	// speedExponent relates a workload's slowdown to the probe's: the probe,
	// a tight loop that keeps the core's ports full, loses more to a busy
	// sibling than the repository's code does. Over ten runs of each closed
	// loop spread over both states, exponents from 0.6 to 0.75 leave
	// throughput and CPU time within 0.03 to 0.10 between quartiles and median
	// latency within 0.04 to 0.14; 1.0 overcorrects and leaves 0.09 to 0.23,
	// no correction leaves 0.18 to 0.41. At the reference speed the correction
	// is 1 whatever the exponent.
	speedExponent = 0.7
)

type speedSample struct {
	at    time.Time
	speed float64 // probe rate over probeReference
}

// hostProbe samples the host's speed on a thread of its own from start until
// stop.
type hostProbe struct {
	mu      sync.Mutex
	samples []speedSample
	quit    chan struct{}
	done    chan struct{}
}

func startHostProbe() *hostProbe {
	p := &hostProbe{quit: make(chan struct{}), done: make(chan struct{})}
	a, b, c := make([]float32, probeDim*probeDim), make([]float32, probeDim*probeDim), make([]float32, probeDim*probeDim)
	for i := range a {
		a[i], b[i] = float32(i%5)*0.5, float32(i%3)*0.25
	}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			const runs = 5
			probeKernel(a, b, c)
			t0 := threadCPU()
			for r := 0; r < runs; r++ {
				probeKernel(a, b, c)
			}
			if dt := threadCPU() - t0; dt > 0 {
				p.mu.Lock()
				p.samples = append(p.samples, speedSample{time.Now(), runs / dt.Seconds() / probeReference})
				p.mu.Unlock()
			}
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *hostProbe) stop() {
	close(p.quit)
	<-p.done
}

func probeKernel(a, b, c []float32) {
	const m = probeDim
	for i := 0; i < m; i++ {
		out := c[i*m : i*m+m]
		for k := 0; k < m; k++ {
			av := a[i*m+k]
			row := b[k*m : k*m+m]
			for j := range row {
				out[j] += av * row[j]
			}
		}
	}
}

// threadCPU returns the CPU time the calling thread has used, from
// CLOCK_THREAD_CPUTIME_ID: getrusage(RUSAGE_THREAD) is only adjusted tick
// counts and stalls and jumps at this scale.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// speed returns the host's mean speed between from and to, as a share of the
// reference: the mean of the samples taken in the interval, or of the two
// around it when it is shorter than the sampling period.
func (p *hostProbe) speed(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.samples
	if len(s) == 0 {
		return 1
	}
	lo := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(from) })
	hi := sort.Search(len(s), func(i int) bool { return s[i].at.After(to) })
	if lo >= hi {
		lo, hi = max(lo-1, 0), min(hi+1, len(s))
	}
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x.speed
	}
	return sum / float64(hi-lo)
}

// correction returns the factor that takes a duration measured between from
// and to to what it would read at the reference speed. Rates divide by it.
func (p *hostProbe) correction(from, to time.Time) float64 {
	return math.Pow(p.speed(from, to), speedExponent)
}
