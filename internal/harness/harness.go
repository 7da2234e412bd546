// Package harness regenerates every table and figure of the paper's
// evaluation section from freshly-trained models: Table I (autoencoder
// architectures), Fig. 3 (BranchyNet speedup vs hard-sample fraction),
// Table II (latency / energy / accuracy across datasets and devices),
// Fig. 5 (comparison with AdaDeep and SubFlow), and Figs. 6–8 (scalability
// sweeps). README.md, "Reproduction substitutions", indexes the experiments
// and the substitutions they run under.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/models"
	"cbnet/internal/rng"
	"cbnet/internal/train"
)

// Options configures a harness run. Zero values select reproduction
// defaults sized to finish in minutes on a laptop; raise TrainN/TestN
// toward the paper's 60000/10000 for full-scale runs.
type Options struct {
	TrainN, TestN int
	Seed          uint64
	// Repetitions for the scalability experiments (paper: 3).
	Repetitions int
	// MaxAccuracyDrop is the accuracy tolerance for exit-threshold tuning
	// (default 0.01; raise it for very small training budgets where the
	// branch classifier is weak).
	MaxAccuracyDrop float64
	// Log receives verbose progress; nil silences it.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.TrainN == 0 {
		o.TrainN = 2000
	}
	if o.TestN == 0 {
		o.TestN = 600
	}
	if o.Repetitions == 0 {
		o.Repetitions = 3
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Runner trains and caches one CBNet system per dataset family and derives
// every experiment from them.
type Runner struct {
	opts    Options
	systems map[dataset.Family]*core.System
	stds    map[dataset.Family]dataset.Standard
}

// NewRunner creates a harness runner.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts:    opts.withDefaults(),
		systems: make(map[dataset.Family]*core.System),
		stds:    make(map[dataset.Family]dataset.Standard),
	}
}

// Families returns the evaluation datasets in the paper's order.
func Families() []dataset.Family {
	return []dataset.Family{dataset.MNIST, dataset.FashionMNIST, dataset.KMNIST}
}

// System returns the trained system for a family, training it on first use.
func (r *Runner) System(f dataset.Family) (*core.System, dataset.Standard, error) {
	if sys, ok := r.systems[f]; ok {
		return sys, r.stds[f], nil
	}
	if r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, "== training system for %s (train %d, test %d)\n", f, r.opts.TrainN, r.opts.TestN)
	}
	std, err := dataset.LoadStandard(f, r.opts.TrainN, r.opts.TestN, r.opts.Seed+uint64(f)*1000)
	if err != nil {
		return nil, dataset.Standard{}, err
	}
	cfg := core.DefaultSystemConfig(f)
	cfg.Seed = r.opts.Seed + uint64(f)
	cfg.Log = r.opts.Log
	cfg.MaxAccuracyDrop = r.opts.MaxAccuracyDrop
	sys, err := core.TrainSystem(std, cfg)
	if err != nil {
		return nil, dataset.Standard{}, err
	}
	r.systems[f] = sys
	r.stds[f] = std
	return sys, std, nil
}

// ---------------------------------------------------------------------------
// Table I — converting autoencoder architectures.

// FormatTableI renders the paper's Table I from the coded architectures.
func FormatTableI() string {
	var sb strings.Builder
	sb.WriteString("Table I: Converting autoencoder architecture per dataset\n")
	sb.WriteString("layer            | MNIST        | FMNIST       | KMNIST\n")
	sb.WriteString("-----------------+--------------+--------------+--------------\n")
	arch := map[dataset.Family]models.AEArch{}
	for _, f := range Families() {
		arch[f] = models.TableIArch(f)
	}
	act := func(a models.AEArch, i int) string {
		if a.Relu[i] {
			return "relu"
		}
		return "linear"
	}
	sb.WriteString(fmt.Sprintf("%-17s| %-13s| %-13s| %s\n", "Input", "784", "784", "784"))
	for i := 0; i < 3; i++ {
		row := fmt.Sprintf("%-17s", fmt.Sprintf("FullyConnected%d", i+1))
		for _, f := range Families() {
			a := arch[f]
			row += fmt.Sprintf("| %-13s", fmt.Sprintf("%d %s", a.Widths[i], act(a, i)))
		}
		sb.WriteString(row + "\n")
	}
	sb.WriteString(fmt.Sprintf("%-17s| %-13s| %-13s| %s\n", "FullyConnected4", "784 sigmoid*", "784 sigmoid*", "784 sigmoid*"))
	sb.WriteString("* paper lists Softmax; see README.md, \"Reproduction substitutions\"\n")
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table II — latency, energy savings, accuracy.

// TableIIRow is one (dataset, model) row of Table II.
type TableIIRow struct {
	Dataset string
	Model   string
	// LatencyMS per device in the paper's order: Pi, GCI, GCI+GPU.
	LatencyMS [3]float64
	// EnergySavingsPct vs LeNet per device; NaN-free (0 for LeNet itself).
	EnergySavingsPct [3]float64
	AccuracyPct      float64
}

// TableII regenerates Table II over all datasets, models and devices.
func (r *Runner) TableII() ([]TableIIRow, error) {
	var rows []TableIIRow
	profiles := device.All()
	for _, f := range Families() {
		sys, std, err := r.System(f)
		if err != nil {
			return nil, err
		}
		exitRate := sys.Branchy.EarlyExitRate(std.Test)

		lenetCost := device.SequentialCost(sys.LeNet)
		cbCost := sys.CBNet.Cost()

		var lenetE, branchyE, cbE [3]float64
		var lenetL, branchyL, cbL [3]float64
		for i, p := range profiles {
			var err error
			if lenetL[i], lenetE[i], err = core.PriceImage(p, lenetCost); err != nil {
				return nil, err
			}
			branchyL[i] = core.BranchyLatency(p, sys.Branchy, exitRate)
			branchyE[i], err = core.EnergyPerImage(p, branchyL[i], core.BranchyKernelTime(p, sys.Branchy, exitRate))
			if err != nil {
				return nil, err
			}
			if cbL[i], cbE[i], err = core.PriceImage(p, cbCost); err != nil {
				return nil, err
			}
		}
		savings := func(model [3]float64) [3]float64 {
			var out [3]float64
			for i := range model {
				out[i] = 100 * (1 - model[i]/lenetE[i])
			}
			return out
		}
		ms := func(lat [3]float64) [3]float64 {
			var out [3]float64
			for i := range lat {
				out[i] = lat[i] * 1e3
			}
			return out
		}
		rows = append(rows,
			TableIIRow{Dataset: f.String(), Model: "LeNet", LatencyMS: ms(lenetL),
				AccuracyPct: 100 * train.EvalClassifier(sys.LeNet, std.Test)},
			TableIIRow{Dataset: f.String(), Model: "BranchyNet", LatencyMS: ms(branchyL),
				EnergySavingsPct: savings(branchyE), AccuracyPct: 100 * sys.Branchy.Accuracy(std.Test)},
			TableIIRow{Dataset: f.String(), Model: "CBNet", LatencyMS: ms(cbL),
				EnergySavingsPct: savings(cbE), AccuracyPct: 100 * sys.CBNet.Accuracy(std.Test)},
		)
	}
	return rows, nil
}

// FormatTableII renders Table II rows like the paper's layout.
func FormatTableII(rows []TableIIRow) string {
	var sb strings.Builder
	sb.WriteString("Table II: latency per image (ms), energy savings vs LeNet (%), accuracy (%)\n")
	sb.WriteString("Dataset | Model      | Pi lat  | GCI lat | GPU lat | Pi sav | GCI sav | GPU sav | Acc\n")
	sb.WriteString("--------+------------+---------+---------+---------+--------+---------+---------+------\n")
	for _, r := range rows {
		sav := func(v float64) string {
			if r.Model == "LeNet" {
				return "   -  "
			}
			return fmt.Sprintf("%5.1f%%", v)
		}
		sb.WriteString(fmt.Sprintf("%-8s| %-11s| %7.3f | %7.3f | %7.4f | %s | %s  | %s  | %5.2f\n",
			r.Dataset, r.Model,
			r.LatencyMS[0], r.LatencyMS[1], r.LatencyMS[2],
			sav(r.EnergySavingsPct[0]), sav(r.EnergySavingsPct[1]), sav(r.EnergySavingsPct[2]),
			r.AccuracyPct))
	}
	return sb.String()
}

// SpeedupSummary derives the §IV-D text statistics from Table II rows: the
// min–max CBNet speedup vs LeNet and vs BranchyNet per device.
func SpeedupSummary(rows []TableIIRow) string {
	type minmax struct{ lo, hi float64 }
	devices := []string{"RaspberryPi4", "GCI", "GCI+GPU"}
	vsLeNet := make([]minmax, 3)
	vsBranchy := make([]minmax, 3)
	for i := range vsLeNet {
		vsLeNet[i] = minmax{lo: 1e18}
		vsBranchy[i] = minmax{lo: 1e18}
	}
	byKey := map[string]TableIIRow{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.Model] = r
	}
	for _, f := range Families() {
		lenet, okL := byKey[f.String()+"/LeNet"]
		branchy, okB := byKey[f.String()+"/BranchyNet"]
		cb, okC := byKey[f.String()+"/CBNet"]
		if !okL || !okB || !okC {
			continue
		}
		for i := 0; i < 3; i++ {
			s := lenet.LatencyMS[i] / cb.LatencyMS[i]
			if s < vsLeNet[i].lo {
				vsLeNet[i].lo = s
			}
			if s > vsLeNet[i].hi {
				vsLeNet[i].hi = s
			}
			s = branchy.LatencyMS[i] / cb.LatencyMS[i]
			if s < vsBranchy[i].lo {
				vsBranchy[i].lo = s
			}
			if s > vsBranchy[i].hi {
				vsBranchy[i].hi = s
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("CBNet speedup summary (cf. §IV-D):\n")
	for i, d := range devices {
		sb.WriteString(fmt.Sprintf("  %-13s vs LeNet %.2fx-%.2fx, vs BranchyNet %.2fx-%.2fx\n",
			d, vsLeNet[i].lo, vsLeNet[i].hi, vsBranchy[i].lo, vsBranchy[i].hi))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Fig. 3 — BranchyNet speedup over LeNet vs hard-sample fraction.

// Fig3Point is one dataset bar of Fig. 3.
type Fig3Point struct {
	Dataset        string
	HardPct        float64 // % of test samples that do NOT exit early
	SpeedupVsLeNet float64 // on the Raspberry Pi 4
}

// Fig3 regenerates the motivation figure on the Pi profile.
func (r *Runner) Fig3() ([]Fig3Point, error) {
	pi := device.RaspberryPi4()
	var pts []Fig3Point
	for _, f := range Families() {
		sys, std, err := r.System(f)
		if err != nil {
			return nil, err
		}
		exitRate := sys.Branchy.EarlyExitRate(std.Test)
		lenetLat := pi.Latency(device.SequentialCost(sys.LeNet))
		branchyLat := core.BranchyLatency(pi, sys.Branchy, exitRate)
		pts = append(pts, Fig3Point{
			Dataset:        f.String(),
			HardPct:        100 * (1 - exitRate),
			SpeedupVsLeNet: lenetLat / branchyLat,
		})
	}
	return pts, nil
}

// FormatFig3 renders Fig. 3 points.
func FormatFig3(pts []Fig3Point) string {
	var sb strings.Builder
	sb.WriteString("Fig. 3: BranchyNet speedup over LeNet vs hard samples (Raspberry Pi 4)\n")
	sb.WriteString("Dataset | Hard samples | Speedup\n")
	for _, p := range pts {
		sb.WriteString(fmt.Sprintf("%-8s| %11.1f%% | %.2fx\n", p.Dataset, p.HardPct, p.SpeedupVsLeNet))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figs. 6–8 — scalability sweeps.

// ScalPoint is one dataset-ratio sample of a scalability curve, averaged
// over the configured repetitions.
type ScalPoint struct {
	Ratio         float64
	BranchyTimeS  float64 // total inference time over the subset, seconds
	CBNetTimeS    float64
	BranchyAccPct float64
	CBNetAccPct   float64
}

// ScalSeries is one device panel of Fig. 6/7/8.
type ScalSeries struct {
	Device string
	Points []ScalPoint
}

// FigScalability regenerates the scalability analysis for one family
// (Fig. 6 = MNIST, Fig. 7 = FMNIST, Fig. 8 = KMNIST): dataset-size ratios
// 0.1…1.0, hard fraction held constant by stratified subsetting, repeated
// and averaged.
func (r *Runner) FigScalability(f dataset.Family) ([]ScalSeries, error) {
	sys, std, err := r.System(f)
	if err != nil {
		return nil, err
	}
	ratios := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	var series []ScalSeries
	for _, prof := range device.All() {
		s := ScalSeries{Device: prof.Name}
		for _, ratio := range ratios {
			var pt ScalPoint
			pt.Ratio = ratio
			for rep := 0; rep < r.opts.Repetitions; rep++ {
				rr := rng.New(r.opts.Seed + uint64(f)*97 + uint64(rep)*31 + uint64(ratio*1000))
				sub, err := std.Test.Subset(ratio, rr)
				if err != nil {
					return nil, err
				}
				n := float64(sub.Len())
				exitRate := sys.Branchy.EarlyExitRate(sub)
				pt.BranchyTimeS += n * core.BranchyLatency(prof, sys.Branchy, exitRate)
				pt.CBNetTimeS += n * prof.Latency(sys.CBNet.Cost())
				pt.BranchyAccPct += 100 * sys.Branchy.Accuracy(sub)
				pt.CBNetAccPct += 100 * sys.CBNet.Accuracy(sub)
			}
			reps := float64(r.opts.Repetitions)
			pt.BranchyTimeS /= reps
			pt.CBNetTimeS /= reps
			pt.BranchyAccPct /= reps
			pt.CBNetAccPct /= reps
			s.Points = append(s.Points, pt)
		}
		series = append(series, s)
	}
	return series, nil
}

// FormatScalability renders one figure's series.
func FormatScalability(f dataset.Family, series []ScalSeries) string {
	var sb strings.Builder
	figNum := map[dataset.Family]int{dataset.MNIST: 6, dataset.FashionMNIST: 7, dataset.KMNIST: 8}[f]
	sb.WriteString(fmt.Sprintf("Fig. %d: scalability analysis, %s\n", figNum, f))
	for _, s := range series {
		sb.WriteString(fmt.Sprintf("-- %s\n", s.Device))
		sb.WriteString("ratio | Branchy t(s) | CBNet t(s) | Branchy acc | CBNet acc\n")
		for _, p := range s.Points {
			sb.WriteString(fmt.Sprintf("%5.1f | %12.4f | %10.4f | %10.2f%% | %8.2f%%\n",
				p.Ratio, p.BranchyTimeS, p.CBNetTimeS, p.BranchyAccPct, p.CBNetAccPct))
		}
	}
	return sb.String()
}

// ExperimentIDs lists the registered experiment identifiers.
func ExperimentIDs() []string {
	ids := []string{"table1", "table2", "fig3", "fig5", "fig6", "fig7", "fig8"}
	sort.Strings(ids)
	return ids
}
