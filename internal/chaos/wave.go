package chaos

import "time"

// Wave is a trapezoidal open-loop load profile: a baseline rate ramps
// linearly to a peak (the flash crowd), holds, and decays back.
type Wave struct {
	Base  float64 // requests/second before and after the crowd
	Peak  float64 // requests/second at the top of the crowd
	Ramp  time.Duration
	Hold  time.Duration
	Decay time.Duration
}

// RateAt returns the instantaneous request rate at a point in elapsed
// experiment time.
func (w Wave) RateAt(t time.Duration) float64 {
	if t < 0 {
		return w.Base
	}
	switch {
	case t < w.Ramp:
		frac := float64(t) / float64(w.Ramp)
		return w.Base + (w.Peak-w.Base)*frac
	case t < w.Ramp+w.Hold:
		return w.Peak
	case t < w.Ramp+w.Hold+w.Decay:
		frac := float64(t-w.Ramp-w.Hold) / float64(w.Decay)
		return w.Peak - (w.Peak-w.Base)*frac
	default:
		return w.Base
	}
}

// Arrivals integrates the wave into a deterministic arrival schedule over
// the given duration: offsets from experiment start at which requests
// fire. Each inter-arrival gap is 1/rate at the moment of the previous
// arrival, so the schedule tracks the profile without randomness — runs
// are reproducible and assertions stable.
func (w Wave) Arrivals(total time.Duration) []time.Duration {
	var out []time.Duration
	t := time.Duration(0)
	for t < total {
		out = append(out, t)
		rate := w.RateAt(t)
		if rate <= 0 {
			rate = 1
		}
		t += time.Duration(float64(time.Second) / rate)
	}
	return out
}
