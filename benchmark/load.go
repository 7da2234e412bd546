//go:build linux

package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cbnet/internal/rng"
)

// record is what the generator keeps of one operation. Times are nanoseconds
// since the run's start. In a closed loop due equals
// start; in an open loop due is the scheduled send time and latency counts
// from it.
type record struct {
	due, start, end int64
	done            bool // the operation ran (false past the safety deadline)
	ok              bool // well-formed 200, or a nil-error result
	right           int  // images answered with the input's label
	matches         int  // images answered with the oracle's class for the route taken
	hardRoute       bool
	status          int           // HTTP status, 0 in-process
	batch           int           // micro-batch size the engine reported
	energyMJ        float64       // modelled Pi 4 energy per image of the route taken
	wall, queue     time.Duration // the engine's own timings, as reported
	infer           time.Duration // in-process only; the HTTP reply omits it
}

// opFunc performs operation i on behalf of one of the generator's workers
// and fills in the outcome fields of rec; the generator fills in the times.
type opFunc func(worker, i int, rec *record)

// load describes one run of the generator: a warm-up or a measured window.
type load struct {
	ops     int
	workers int
	// due, when set, makes the loop open: operation i is sent at due[i]
	// nanoseconds by whichever worker is free, late if none is.
	due []int64
	// stopAfter ends the run early: warm-up is cut by it, a measured window
	// carries it only as a guard against a host too slow for the count.
	stopAfter time.Duration
	do        opFunc
	// prep, when set, stages operation i's input before its clock starts.
	prep func(worker, i int)
	// cpu reads the CPU seconds used so far by the process being measured.
	cpu func() (float64, error)
	// spans, when set, turns the benchmark's span log on.
	spans *spanLog
}

type cpuSample struct {
	t   int64
	cpu float64
}

// window is a finished run: when it started, every operation's record, and
// the CPU time of the measured process sampled on the side every 20 ms.
type window struct {
	start time.Time
	recs  []record
	cpu   []cpuSample
}

func (l load) run() (window, error) {
	win := window{start: time.Now(), recs: make([]record, l.ops)}
	t0 := win.start
	var next atomic.Int64

	var cpuErr error
	sample := func() {
		c, err := l.cpu()
		if err != nil {
			cpuErr = err
			return
		}
		win.cpu = append(win.cpu, cpuSample{t: int64(time.Since(t0)), cpu: c})
	}
	sample()
	stopSampling, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-stopSampling:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= l.ops || (l.stopAfter > 0 && time.Since(t0) > l.stopAfter) {
					return
				}
				rec := &win.recs[i]
				if l.due != nil {
					rec.due = l.due[i]
					sleepUntil(t0, time.Duration(rec.due))
				}
				if l.prep != nil {
					l.prep(w, i)
				}
				rec.start = int64(time.Since(t0))
				if l.due == nil {
					rec.due = rec.start
				}
				l.do(w, i, rec)
				rec.end = int64(time.Since(t0))
				rec.done = true
				if l.spans != nil {
					l.spans.record(w, i, rec)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopSampling)
	<-sampled
	sample()
	return win, cpuErr
}

// sleepUntil blocks the calling thread in nanosleep until due has passed
// since t0. time.Sleep would overshoot by half a millisecond and more (the
// runtime's idle wait has millisecond granularity), which an open loop would
// count as latency; nanosleep is late by about a tenth of that.
func sleepUntil(t0 time.Time, due time.Duration) {
	for {
		wait := due - time.Since(t0)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // interrupted early: the loop sleeps the rest
	}
}

// poissonSchedule draws ops arrival times at the given mean rate.
func poissonSchedule(r *rng.RNG, ops int, perSecond float64) []int64 {
	due := make([]int64, ops)
	var t float64
	for i := range due {
		t += -math.Log(1-r.Float64()) / perSecond
		due[i] = int64(t * 1e9)
	}
	return due
}

// The measured window is cut into five equal slices by completed operations.
// Every timing metric is computed per slice, brought to the reference host
// speed by the host's speed while the slice ran (hostspeed.go), and the run
// reports the median slice, so that a burst which spoils one slice or two
// stays out of the result. No slice is preferred: a stall the program under
// test causes in three slices of five is in the number.
const slices = 5

// timing holds the timing metrics of a window, each the median over slices.
type timing struct {
	imgsPerS, p50ms, p95ms, p99ms, cpuMsPerImg float64
	lateP99us                                  float64 // open loop: how late the generator sent
	hostSpeed                                  float64 // share of the reference speed
}

// summarize computes the timing metrics of the completed operations, each of
// which carried imgsPerOp images: at the reference host speed, and raw as the
// clocks read. Latency counts from an operation's due time. An open loop
// completes what it is sent, so its rate is the offered one unless the server
// falls behind, whatever the host's speed: it is not corrected.
func (win window) summarize(probe *hostProbe, imgsPerOp int, open bool) (atRef, raw timing) {
	done := make([]*record, 0, len(win.recs))
	for i := range win.recs {
		if win.recs[i].done {
			done = append(done, &win.recs[i])
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].end < done[b].end })

	// v[0] collects the corrected per-slice values, v[1] the raw ones.
	var v [2]struct{ rate, p50, p95, p99, cpu, late, speed []float64 }
	var sliceStart int64
	for k := 0; k < slices; k++ {
		slice := done[k*len(done)/slices : (k+1)*len(done)/slices]
		if len(slice) == 0 {
			continue
		}
		sliceEnd := slice[len(slice)-1].end
		lat := make([]float64, len(slice))
		lateBy := make([]float64, len(slice))
		for i, r := range slice {
			lat[i] = float64(r.end-r.due) / 1e6
			lateBy[i] = float64(r.start-r.due) / 1e3
		}
		sort.Float64s(lat)
		sort.Float64s(lateBy)
		imgs := float64(len(slice) * imgsPerOp)
		from, to := win.start.Add(time.Duration(sliceStart)), win.start.Add(time.Duration(sliceEnd))
		for j, h := range [2]float64{probe.correction(from, to), 1} {
			rate := imgs / (float64(sliceEnd-sliceStart) / 1e9)
			if !open {
				rate /= h
			}
			v[j].rate = append(v[j].rate, rate)
			v[j].p50 = append(v[j].p50, quantile(lat, 0.50)*h)
			v[j].p95 = append(v[j].p95, quantile(lat, 0.95)*h)
			v[j].p99 = append(v[j].p99, quantile(lat, 0.99)*h)
			v[j].cpu = append(v[j].cpu, (win.cpuAt(sliceEnd)-win.cpuAt(sliceStart))*1e3/imgs*h)
			v[j].late = append(v[j].late, quantile(lateBy, 0.99))
			v[j].speed = append(v[j].speed, probe.speed(from, to))
		}
		sliceStart = sliceEnd
	}
	var out [2]timing
	for j := range out {
		out[j] = timing{
			imgsPerS:    median(v[j].rate),
			p50ms:       median(v[j].p50),
			p95ms:       median(v[j].p95),
			p99ms:       median(v[j].p99),
			cpuMsPerImg: median(v[j].cpu),
			lateP99us:   median(v[j].late),
			hostSpeed:   median(v[j].speed),
		}
	}
	return out[0], out[1]
}

// cpuAt interpolates the sampled CPU seconds at time t.
func (win window) cpuAt(t int64) float64 {
	s := win.cpu
	if len(s) == 0 {
		return math.NaN()
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].t >= t })
	switch {
	case i == 0:
		return s[0].cpu
	case i == len(s):
		return s[len(s)-1].cpu
	}
	a, b := s[i-1], s[i]
	return a.cpu + (b.cpu-a.cpu)*float64(t-a.t)/float64(b.t-a.t)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile reads the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
