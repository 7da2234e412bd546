//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the self-check reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// timingMetrics are the end-to-end metrics read off a clock; the others are
// counts, shares and memory.
var timingMetrics = map[string]bool{
	"imgs_per_s": true, "latency_p50_ms": true, "cpu_ms_per_img": true, "setup_s": true,
}

// maxTimingRange is how far apart the ten values of a timing metric may lie,
// over their median, for single runs to be worth comparing.
const maxTimingRange = 0.10

// selfCheck runs every workload ten times as the driver does — a fresh
// process and another seed each time, workloads alternating — in two sets of
// five, and reports for each end-to-end metric the two set medians, the gap
// between them, the interquartile spread of the ten values over their median
// (the driver's measure) and their full range. It fails when a gap or a
// spread exceeds the metric's bound, or a timing metric's range exceeds
// maxTimingRange: on such a pair this host cannot tell a regression of the
// bound's size from its own noise, and a comparison there is unresolved.
func selfCheck(o options, w io.Writer) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# host:", fingerprint())
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	const sets, perSet = 2, 5
	values := map[string][]float64{} // "workload/metric" → one value per run
	for run := 0; run < sets*perSet; run++ {
		for _, wl := range workloads {
			seed := o.seed + uint64(run)
			cmd := exec.Command(exe, "-workload", wl.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(spec.RunSeconds), "-trace", "0")
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			for _, line := range lines {
				// "# raw: name=value ...": the timings as the clocks read them.
				if rest, ok := bytes.CutPrefix(line, []byte("# raw: ")); ok {
					for _, kv := range strings.Fields(string(rest)) {
						name, val, _ := strings.Cut(kv, "=")
						if x, err := strconv.ParseFloat(val, 64); err == nil {
							key := wl.name + "/raw/" + name
							values[key] = append(values[key], x)
						}
					}
				}
			}
			var rep struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				return fmt.Errorf("%s seed %d: last line is not the report: %w", wl.name, seed, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: answers differ from the oracle", wl.name, seed)
			}
			for name, m := range rep.Metrics {
				key := wl.name + "/" + name
				values[key] = append(values[key], m.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d %s done\n", run+1, sets*perSet, wl.name)
		}
	}

	fmt.Fprintf(w, "\n%d runs per workload, seeds %d to %d, -seconds %d, two sets of %d.\n\n",
		sets*perSet, o.seed, o.seed+sets*perSet-1, spec.RunSeconds, perSet)
	fmt.Fprintln(w, "| workload | metric | unit | bound | median set 1 | median set 2 | gap | IQR / median | range / median | raw IQR / median | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|")
	var failures []string
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			v := values[wl.name+"/"+m.Name]
			if len(v) != sets*perSet {
				return fmt.Errorf("%s: %s printed on %d of %d runs", wl.name, m.Name, len(v), sets*perSet)
			}
			a, b, all := median(v[:perSet]), median(v[perSet:]), median(v)
			gap := (b - a) / a // positive is worse
			if m.Better == "higher" {
				gap = -gap
			}
			q1, q3 := quartiles(v)
			spread := (q3 - q1) / all
			lo, hi := minMax(v)
			var why []string
			if gap > m.Bound {
				why = append(why, "gap")
			}
			if spread > m.Bound {
				why = append(why, "spread")
			}
			if timingMetrics[m.Name] && (hi-lo)/all > maxTimingRange {
				why = append(why, "range")
			}
			verdict := "ok"
			if len(why) > 0 {
				verdict = "unresolved: " + strings.Join(why, ", ")
				failures = append(failures, wl.name+"/"+m.Name)
			}
			// The same spread before the correction to the reference host speed.
			rawSpread := "-"
			if raw := values[wl.name+"/raw/"+m.Name]; len(raw) == sets*perSet {
				q1, q3 := quartiles(raw)
				rawSpread = fmt.Sprintf("%.4f", (q3-q1)/median(raw))
			}
			fmt.Fprintf(w, "| %s | %s | %s | %g | %.6g | %.6g | %+.4f | %.4f | %.4f | %s | %s |\n",
				wl.name, m.Name, m.Unit, m.Bound, a, b, gap, spread, (hi-lo)/all, rawSpread, verdict)
		}
	}
	fmt.Fprintln(w, "\nThe ten values of each timing metric, in run order, after the host's speed over each run:")
	fmt.Fprintln(w)
	for _, wl := range workloads {
		fmt.Fprintf(w, "- `%s` host speed (share of the reference):", wl.name)
		for _, x := range values[wl.name+"/raw/host_speed"] {
			fmt.Fprintf(w, " %.3f", x)
		}
		fmt.Fprintln(w)
		for _, m := range spec.EndToEnd {
			v := values[wl.name+"/"+m.Name]
			if lo, hi := minMax(v); lo == hi {
				continue
			}
			fmt.Fprintf(w, "- `%s` `%s`:", wl.name, m.Name)
			for _, x := range v {
				fmt.Fprintf(w, " %.5g", x)
			}
			fmt.Fprintln(w)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d of %d pairs do not repeat within their bounds on this host: %s",
			len(failures), len(workloads)*len(spec.EndToEnd), strings.Join(failures, ", "))
	}
	return nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = int(math.Min(math.Max(float64(j), 1), float64(len(s)-1)))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
