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
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// TestRunProfile runs the per-step profile sweep with a small iteration
// count and holds every shipped model's table to its compiled plan: one row
// per step in execution order, the compile-time FLOPs per image, and a
// %time column that adds up to the plan. It then sums more step spans per
// model than an engine worker's 256-span ring holds: the profile's own
// recorder must keep every execution.
func TestRunProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := runProfile(&buf, 4, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, col := range []string{"ms/exec", "%time", "GFLOPS", "FLOP/B", "MFLOP/img"} {
		if !strings.Contains(out, col) {
			t.Errorf("profile output missing column %q", col)
		}
	}
	for _, m := range profiledModels() {
		_, table, ok := strings.Cut(out, "\n"+m.name+"  (")
		if !ok {
			t.Errorf("profile output missing model %q", m.name)
			continue
		}
		plan, err := nn.Compile(m.net, 4)
		if err != nil {
			t.Fatal(err)
		}
		steps := plan.Steps()
		// The model's line, the header, then one row per step.
		lines := strings.Split(table, "\n")[2:]
		if len(lines) < len(steps) {
			t.Fatalf("%s: %d rows, want %d", m.name, len(lines), len(steps))
		}
		var pct float64
		for i, st := range steps {
			f := strings.Fields(lines[i])
			if len(f) != 7 || f[0] != strconv.Itoa(i) || f[1] != st.Name {
				t.Fatalf("%s row %d = %q, want step %d %s and 7 columns", m.name, i, lines[i], i, st.Name)
			}
			if want := strconv.FormatFloat(float64(st.FLOPsPerImage)/1e6, 'f', 3, 64); f[6] != want {
				t.Errorf("%s %s: MFLOP/img %s, want %s", m.name, st.Name, f[6], want)
			}
			p, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				t.Fatal(err)
			}
			pct += p
		}
		if len(lines) > len(steps) && len(strings.Fields(lines[len(steps)])) == 7 {
			t.Errorf("%s: extra row %q", m.name, lines[len(steps)])
		}
		if math.Abs(pct-100) > 0.5 {
			t.Errorf("%s: %%time sums to %.1f", m.name, pct)
		}

		const iters = 100
		if len(steps)*iters <= 256 {
			t.Fatalf("%s: %d spans fit a 256-span ring; raise iters", m.name, len(steps)*iters)
		}
		x := tensor.New(4, m.inW)
		x.RandUniform(rng.New(3), 0, 1)
		totals, rec := profilePlan(plan, x, iters)
		if d := rec.Dropped(); d != 0 {
			t.Errorf("%s: %d spans dropped", m.name, d)
		}
		for i, s := range totals {
			if s.execs != iters || s.Batch != 4*iters {
				t.Errorf("%s step %d: %d executions over %d images, want %d over %d",
					m.name, i, s.execs, s.Batch, iters, 4*iters)
			}
		}
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
