package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cbnet/internal/dataset"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
	"cbnet/internal/trace"
)

// profiledModel is one network in the -exp profile sweep. The list mirrors
// the plan-parity oracle's shipped-model set, so everything the serving
// stack can compile shows up in the profile.
type profiledModel struct {
	name string
	net  *nn.Sequential
	inW  int
}

func profiledModels() []profiledModel {
	br := models.NewBranchyLeNet(rng.New(11), 0.05)
	return []profiledModel{
		{"converting-ae-sigmoid", models.NewTableIAE(dataset.MNIST, rng.New(12)).Net, dataset.Pixels},
		{"converting-ae-softmax", models.NewConvertingAE(models.TableIArch(dataset.FashionMNIST), models.OutputSoftmax, models.L1Coefficient, rng.New(13)).Net, dataset.Pixels},
		{"lightweight", models.ExtractLightweight(br), dataset.Pixels},
		{"lenet", models.NewLeNet(rng.New(14)), dataset.Pixels},
		{"branchy-branch", br.Branch, 3 * 14 * 14},
	}
}

// stepTotal is one plan step's account over a profiling run: the step's
// spans summed — Dur, FLOPs and Bytes added up, Batch counting images —
// and execs the number of spans.
type stepTotal struct {
	trace.Span
	execs int
}

// profilePlan runs plan once untimed to warm every buffer, then iters times
// on x with a recorder sized to hold every step span, and sums those spans
// by step index. The recorder is returned so callers can check nothing was
// dropped.
func profilePlan(plan *nn.Plan, x *tensor.Tensor, iters int) ([]stepTotal, *trace.Recorder) {
	plan.Execute(nil, x)
	steps := make([]stepTotal, len(plan.Steps()))
	rec := trace.NewRecorder(len(steps) * iters)
	plan.EnableTracing(rec)
	for i := 0; i < iters; i++ {
		plan.Execute(nil, x)
	}
	for _, s := range rec.Snapshot() {
		t := &steps[s.Step]
		t.Dur += s.Dur
		t.FLOPs += s.FLOPs
		t.Bytes += s.Bytes
		t.Batch += s.Batch
		t.execs++
	}
	return steps, rec
}

// runProfile executes every shipped model on a traced plan and prints a
// per-step time/GFLOPS table summed from the plan's own step spans.
func runProfile(w io.Writer, batch, iters int) error {
	for _, m := range profiledModels() {
		plan, err := nn.Compile(m.net, batch)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		x := tensor.New(batch, m.inW)
		x.RandUniform(rng.New(99), 0, 1)
		steps, _ := profilePlan(plan, x, iters)
		names := plan.StepNames()

		var totalNS, totalFLOPs int64
		for _, s := range steps {
			totalNS += s.Dur
			totalFLOPs += s.FLOPs
		}
		fmt.Fprintf(w, "\n%s  (batch %d × %d iterations, %.2f ms/batch, %.2f GFLOPS overall)\n",
			m.name, batch, iters,
			float64(totalNS)/float64(iters)/1e6,
			float64(totalFLOPs)/float64(totalNS))
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(tw, "%s\n", "step\tname\tms/exec\t%time\tGFLOPS\tFLOP/B\tMFLOP/img\t")
		for i, s := range steps {
			pct := 0.0
			if totalNS > 0 {
				pct = 100 * float64(s.Dur) / float64(totalNS)
			}
			msPerExec := 0.0
			if s.execs > 0 {
				msPerExec = float64(s.Dur) / float64(s.execs) / 1e6
			}
			mflopPerImg := 0.0
			if s.Batch > 0 {
				mflopPerImg = float64(s.FLOPs) / float64(s.Batch) / 1e6
			}
			fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.1f\t%.2f\t%.1f\t%.3f\t\n",
				i, names[i], msPerExec, pct, s.GFLOPS(), s.Intensity(), mflopPerImg)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
