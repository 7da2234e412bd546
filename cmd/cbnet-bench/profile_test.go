package main

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cbnet/internal/core"
	"cbnet/internal/device"
)

// TestRunProfile runs the per-step profile sweep with a small iteration
// count and checks every shipped model prints a table with the expected
// columns.
func TestRunProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := runProfile(&buf, 4, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range profiledModels() {
		if !strings.Contains(out, m.name) {
			t.Errorf("profile output missing model %q", m.name)
		}
	}
	for _, col := range []string{"ms/exec", "%time", "GFLOPS", "FLOP/B", "MFLOP/img"} {
		if !strings.Contains(out, col) {
			t.Errorf("profile output missing column %q", col)
		}
	}
	if !strings.Contains(out, "conv1+relu1") {
		t.Error("profile output missing fused step names")
	}
}

// TestRunEnergy checks the energy table is the device model and nothing else:
// every model × device row is there, and on the Pi 4 the per-step rows plus
// the per-image overhead add up to the model's row.
func TestRunEnergy(t *testing.T) {
	var buf bytes.Buffer
	if err := runEnergy(&buf); err != nil {
		t.Fatal(err)
	}
	models, steps, _ := strings.Cut(buf.String(), "Per-step energy breakdown")
	for _, m := range profiledModels() {
		_, want, err := core.PriceImage(device.RaspberryPi4(), device.SequentialCost(m.net))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range device.All() {
			if !regexp.MustCompile(`(?m)^\s*` + m.name + `\s+` + regexp.QuoteMeta(p.Name) + `\s`).MatchString(models) {
				t.Errorf("no row for %s on %s", m.name, p.Name)
			}
		}
		var sum float64
		for _, line := range strings.Split(steps, "\n") {
			f := strings.Fields(line)
			if len(f) < 5 || f[0] != m.name {
				continue
			}
			mj, err := strconv.ParseFloat(f[len(f)-2], 64)
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			sum += mj
		}
		// Rows are printed to 1e-3 mJ; a model has at most a dozen.
		if math.Abs(sum-want*1e3) > 0.01 {
			t.Errorf("%s: per-step rows sum to %.3f mJ, model total is %.3f mJ", m.name, sum, want*1e3)
		}
	}
}
