package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec builds the injector a drill's -chaos flag describes: faults
// separated by commas, each written fault=value —
//
//	latency=hard:25ms/easy:6ms  delay every batch on a route ("all" is every route not named)
//	poison=0.77777              panic any batch holding a row whose first pixel is this value, bit-exact
//	stuck=hard                  fail every batch on a route ("all" is every route)
//	error-every=N               fail every Nth batch
//	panic-every=N               panic every Nth batch
func ParseSpec(spec string) (*Injector, error) {
	inj := NewInjector()
	for _, part := range strings.Split(spec, ",") {
		fault, val, _ := strings.Cut(strings.TrimSpace(part), "=")
		var err error
		switch fault {
		case "latency":
			err = inj.setLatencies(val)
		case "poison":
			var v float64
			if v, err = strconv.ParseFloat(val, 32); err == nil && v == 0 {
				err = fmt.Errorf("0 is every blank image's first pixel")
			}
			inj.SetPoisonValue(float32(v))
		case "stuck":
			switch val {
			case "":
				err = fmt.Errorf("names no route")
			case "all":
				val = "*"
			}
			inj.SetStuck(val)
		case "error-every", "panic-every":
			var n int64
			if n, err = strconv.ParseInt(val, 10, 64); err == nil && n < 1 {
				err = fmt.Errorf("N must be at least 1")
			}
			if fault == "error-every" {
				inj.SetErrorEvery(n)
			} else {
				inj.SetPanicEvery(n)
			}
		default:
			err = fmt.Errorf("want latency, poison, stuck, error-every or panic-every")
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: %q: %w", part, err)
		}
	}
	return inj, nil
}

// setLatencies applies a "route:duration/route:duration" latency value; the
// pseudo-route "all" is SetLatency's "", the default for routes without an
// entry of their own.
func (i *Injector) setLatencies(val string) error {
	for _, part := range strings.Split(val, "/") {
		route, dur, ok := strings.Cut(part, ":")
		if !ok || route == "" {
			return fmt.Errorf("%q is not route:duration", part)
		}
		d, err := time.ParseDuration(dur)
		if err != nil || d < 0 {
			return fmt.Errorf("bad duration in %q", part)
		}
		if route == "all" {
			route = ""
		}
		i.SetLatency(route, d)
	}
	return nil
}
