package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cbnet/internal/core"
	"cbnet/internal/device"
	"cbnet/internal/nn"
)

// runEnergy prints what one image costs under the paper's §IV-C device
// model: every shipped model's compiled work (device.SequentialCost) priced
// on each device profile by core.PriceImage — the function behind
// /classify's energyEstimateMj and the /metrics cbnet_energy_* series — and
// the Pi 4 split of the same work plan step by plan step, under the fused
// names -exp profile and the plan-step spans use. A model, not a measurement:
// nothing is executed or timed here.
func runEnergy(w io.Writer) error {
	models := profiledModels()

	fmt.Fprintf(w, "Modelled per-image cost of each model on each device profile\n")
	fmt.Fprintf(w, "(compiled plan work priced by the paper's device/power models; not a measurement)\n\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "model\tdevice\tms/img\tmJ/img\tavg W\t\n")
	for _, m := range models {
		cost := device.SequentialCost(m.net)
		for _, p := range device.All() {
			secs, joules, err := core.PriceImage(p, cost)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", m.name, p.Name, err)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.2f\t\n",
				m.name, p.Name, secs*1e3, joules*1e3, joules/secs)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Step-level breakdown on the Raspberry Pi 4 — the paper's headline
	// deployment target — showing where each model's joules go. The Pi's
	// draw does not depend on the step (Eq. 2), so the rows, with the
	// once-per-image overhead, add up to the model's figure above.
	pi := device.RaspberryPi4()
	fmt.Fprintf(w, "\nPer-step energy breakdown on %s (mJ/img and share of the model's total)\n\n", pi.Name)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "model\tstep\tms/img\tmJ/img\t%%energy\t\n")
	for _, m := range models {
		plan, err := nn.Compile(m.net, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		_, total, err := core.PriceImage(pi, device.SequentialCost(m.net))
		if err != nil {
			return fmt.Errorf("%s on %s: %w", m.name, pi.Name, err)
		}
		row := func(label string, secs, kernel float64) error {
			joules, err := core.EnergyPerImage(pi, secs, kernel)
			if err != nil {
				return fmt.Errorf("%s %s: %w", m.name, label, err)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.1f\t\n", m.name, label, secs*1e3, joules*1e3, 100*joules/total)
			return nil
		}
		for _, st := range plan.Steps() {
			c := device.Cost(st.Work)
			if err := row(fmt.Sprintf("%02d-%s", st.Index, st.Name), pi.MarginalLatency(c), pi.KernelTime(c)); err != nil {
				return err
			}
		}
		if err := row("per-image overhead", pi.InferOverhead, 0); err != nil {
			return err
		}
	}
	return tw.Flush()
}
