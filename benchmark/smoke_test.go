//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

type smokeReport struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// smokeRun runs one workload for about a second of operations, with one cold
// start, a short warm-up and a quarter-size fixture (a cold tier-1 run trains
// it in 4 s, not 16), and parses the last line of what it printed.
func smokeRun(t *testing.T, workload string, trace bool) smokeReport {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: 7, seconds: 1, trace: trace,
		warmup: 200 * time.Millisecond, starts: 1, trainN: fixtureSize / 4}
	if err := o.runAndReport(&out); err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", workload, trace, err, out.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var rep smokeReport
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		t.Fatalf("%s: last line is not the report: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

// check asserts that the report holds exactly the named metrics, each finite
// and in its unit, and returns their values.
func (rep smokeReport) check(t *testing.T, workload string, want []metricSpec) map[string]float64 {
	t.Helper()
	values := map[string]float64{}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok || got.Value == nil:
			t.Errorf("%s: %s is not printed", workload, m.Name)
		case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
			t.Errorf("%s: %s = %v", workload, m.Name, *got.Value)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		default:
			values[m.Name] = *got.Value
		}
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", workload, len(rep.Metrics), len(want))
	}
	return values
}

// TestSmoke runs every workload briefly and the traced run once, so that a
// benchmark that no longer builds, starts its server, or prints what
// BENCHMARK.json promises fails the tests rather than the pipeline.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	endToEnd := map[string]map[string]float64{}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
		v := smokeRun(t, w.Name, false).check(t, w.Name, spec.EndToEnd)
		if v["ok_share"] != 1 {
			t.Errorf("%s: ok_share = %v, want 1", w.Name, v["ok_share"])
		}
		endToEnd[w.Name] = v
	}

	// The traced run, on the paper's own scenario. Its energy per image is the
	// server's energyEstimateMj, the two routes' energies are the benchmark's
	// own pricing of the paper's model: the first must be the sum of the
	// second weighted by the route shares, here and on the other workloads.
	const traced = "http_hard_png_r600"
	layers := smokeRun(t, traced, true).check(t, traced, spec.PerLayer)
	easy, hard := layers["energy.pi4_mj_easy"], layers["energy.pi4_mj_hard"]
	if !(0 < easy && easy < hard) {
		t.Fatalf("energy.pi4_mj_easy = %v, energy.pi4_mj_hard = %v, want 0 < easy < hard", easy, hard)
	}
	if share := layers["engine.hard_route_share"]; share != 1 {
		t.Errorf("%s: engine.hard_route_share = %v, want 1", traced, share)
	}
	for name, hardShare := range map[string]float64{"http_easy_json_c2": 0, traced: 1, "offline_hard_b32": 1} {
		want := hardShare*hard + (1-hardShare)*easy
		if got := endToEnd[name]["pi4_mj_per_img"]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: pi4_mj_per_img = %v, want %v (hard share %v of easy %v mJ, hard %v mJ)", name, got, want, hardShare, easy, hard)
		}
	}
	// Both routes are busy on the mixed workload; its share is a half only
	// when the host is fast enough for the run to complete whole passes.
	if got := endToEnd["engine_mixed_c32"]["pi4_mj_per_img"]; !(easy < got && got < hard) {
		t.Errorf("engine_mixed_c32: pi4_mj_per_img = %v, want between the easy route's %v and the hard route's %v", got, easy, hard)
	}
}
