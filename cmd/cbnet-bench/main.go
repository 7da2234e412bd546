// Command cbnet-bench regenerates the paper's tables and figures, prints
// the offline per-step profile and the device-model energy table, and runs
// the chaos drills.
//
// Usage:
//
//	cbnet-bench -exp table2                 # one experiment
//	cbnet-bench -exp all -train 6000        # everything, bigger training set
//	cbnet-bench -exp profile               # per-plan-step time/GFLOPS tables
//	cbnet-bench -exp energy                # modelled joules per model × device
//	cbnet-bench -exp overload              # flash-crowd chaos drill: ladder vs baseline
//	cbnet-bench -exp faultisolation        # poison-pill + circuit-breaker chaos drill
//
// Experiments: table1, table2, fig3, fig5, fig6, fig7, fig8, profile,
// energy, overload, faultisolation, all ("all" covers the paper
// experiments; profile, energy, overload, and faultisolation run only
// when asked).
//
// "overload" throws the same 5×-capacity trapezoidal flash crowd (chaos
// latency injection pins per-route capacity) at two identical engines —
// one with the spill down the ladder hard → easy → pruned armed, one
// without — and fails unless the armed one answers ≥99% of the crowd with
// p99 under the request deadline, serves part of it on every route, puts a
// hard image back on hard straight after the crowd, and rejects ≥10× fewer
// requests than the baseline. It is the CI chaos smoke's first gate.
//
// "faultisolation" drills the resilience layer: a poison-pill input rides
// every Nth coalesced micro-batch and bisection must serve ≥99% of the
// innocents, convict the pill, and quarantine it (repeat submissions are
// rejected at admission); then a wedged hard route must trip its circuit
// breaker, divert traffic to the healthy route, and heal open → half-open
// → closed once the fault clears. The CI chaos smoke runs it after
// overload.
//
// "profile" compiles every shipped model into an execution plan with
// per-step tracing attached, runs warm batches, and prints a table per
// model: per-step wall time, share of plan time, achieved GFLOPS against
// the compile-time FLOP model, and arithmetic intensity — the offline twin
// of the serving stack's /metrics cbnet_plan_step_* series.
//
// "energy" executes nothing: it takes the work the plan compiler counts for
// the same models (device.SequentialCost, the Table-II-calibrated cost
// model) and prices it on every shipped device profile (Pi 4, cloud
// instance, K80) through core.PriceImage — Profile.Latency and the paper's
// §IV-C power equations, the one function behind /classify's
// energyEstimateMj and the /metrics cbnet_energy_* series. It prints
// milliseconds and millijoules per image per model × device, plus the Pi 4
// split of the same work plan step by plan step. A device model, not a
// measurement.
//
// Performance numbers come from elsewhere: `go run ./benchmark` for the
// repository benchmark, `go test -bench` in the package that owns the code.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cbnet/internal/dataset"
	"cbnet/internal/harness"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id: "+strings.Join(harness.ExperimentIDs(), ", ")+", profile, energy, or all")
		trainN = flag.Int("train", 2000, "training-set size per dataset")
		testN  = flag.Int("test", 600, "test-set size per dataset")
		seed   = flag.Uint64("seed", 42, "master seed")
		reps   = flag.Int("reps", 3, "repetitions for scalability experiments")
		drop   = flag.Float64("maxdrop", 0.02, "accuracy tolerance for exit-threshold tuning")
		verb   = flag.Bool("v", false, "verbose training progress")
	)
	flag.Parse()

	if *exp == "profile" {
		if err := runProfile(os.Stdout, 16, 50); err != nil {
			fmt.Fprintln(os.Stderr, "cbnet-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *exp == "energy" {
		if err := runEnergy(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cbnet-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *exp == "overload" {
		if err := runOverload(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cbnet-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *exp == "faultisolation" {
		if err := runFaultIsolation(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cbnet-bench:", err)
			os.Exit(1)
		}
		return
	}

	var log io.Writer
	if *verb {
		log = os.Stderr
	}
	r := harness.NewRunner(harness.Options{
		TrainN: *trainN, TestN: *testN, Seed: *seed,
		Repetitions: *reps, MaxAccuracyDrop: *drop, Log: log,
	})
	if err := run(r, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "cbnet-bench:", err)
		os.Exit(1)
	}
}

func run(r *harness.Runner, exp string) error {
	ids := []string{exp}
	if exp == "all" {
		ids = harness.ExperimentIDs()
	}
	for _, id := range ids {
		switch id {
		case "table1":
			fmt.Println(harness.FormatTableI())
		case "table2":
			rows, err := r.TableII()
			if err != nil {
				return err
			}
			fmt.Println(harness.FormatTableII(rows))
			fmt.Println(harness.SpeedupSummary(rows))
		case "fig3":
			pts, err := r.Fig3()
			if err != nil {
				return err
			}
			fmt.Println(harness.FormatFig3(pts))
		case "fig5":
			bars, err := r.Fig5()
			if err != nil {
				return err
			}
			fmt.Println(harness.FormatFig5(bars))
		case "fig6", "fig7", "fig8":
			family := map[string]dataset.Family{
				"fig6": dataset.MNIST, "fig7": dataset.FashionMNIST, "fig8": dataset.KMNIST,
			}[id]
			series, err := r.FigScalability(family)
			if err != nil {
				return err
			}
			fmt.Println(harness.FormatScalability(family, series))
		default:
			return fmt.Errorf("unknown experiment %q (want %s or all)", id, strings.Join(harness.ExperimentIDs(), ", "))
		}
	}
	return nil
}
