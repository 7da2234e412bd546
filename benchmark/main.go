//go:build linux

// Command benchmark is the repository's benchmark: four seeded workloads
// from an HTTP request into cbnet-serve down to a single GEMM, each checked
// against an oracle. See README.md in this directory and BENCHMARK.json at
// the repository root.
//
//	go run ./benchmark -workload http_easy_json_c2 -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -workload offline_hard_b32 -seed 1 -seconds 20 -trace 1
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"cbnet/internal/tensor"
)

func main() {
	// A signal must not leave a server behind: stop them, then go.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		stopAllServers()
		fmt.Fprintln(os.Stderr, "benchmark: stopped by", s)
		os.Exit(1)
	}()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		stopAllServers()
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run is main without the process: it parses args, runs what they ask for
// and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	o, selfcheck, err := parseArgs(args)
	if err != nil {
		return err
	}
	if selfcheck {
		return selfCheck(o, stdout)
	}
	return o.runAndReport(stdout)
}

// parseArgs reads the command line. Warm-up, cold starts and fixture size are
// not on it: a run with other values would not compare with any other run.
func parseArgs(args []string) (o options, selfcheck bool, err error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the pool order, the easy/hard interleave and the arrival schedule")
	fs.IntVar(&o.seconds, "seconds", 20, "scales the fixed operation counts: the shortest workload measures about this long on the 2-core reference host")
	trace := fs.Int("trace", 0, "1 runs with the benchmark's span log on and prints the per-layer metrics")
	fs.BoolVar(&selfcheck, "selfcheck", false, "run every workload ten times and report how well the end-to-end metrics repeat")
	if err := fs.Parse(args); err != nil {
		return o, false, err
	}
	if fs.NArg() > 0 {
		return o, false, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.trace = *trace != 0
	o.warmup, o.starts, o.trainN = warmUp, coldStarts, fixtureSize
	return o, selfcheck, nil
}

// runAndReport runs one workload and prints the host and the report.
func (o options) runAndReport(stdout io.Writer) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "# host:", fingerprint())
	rep, err := runWorkload(root, o)
	if err != nil {
		return err
	}
	if err := rep.write(stdout); err != nil {
		return err
	}
	if !rep.correct {
		return errors.New("more than 0.1% of the answers differ from the oracle")
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// repoRoot finds the module root above the working directory: the driver
// runs the benchmark from there, go test from benchmark/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module cbnet\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cbnet go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// fingerprint names the host a number was taken on.
func fingerprint() string {
	cpu := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown kernel"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d kernel=%s go=%s %s/%s gemm=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), kernel, runtime.Version(), runtime.GOOS, runtime.GOARCH, tensor.GEMMKernelName())
}

// write prints every metric by name with its unit, then, as the last line,
// the one JSON object the driver reads. A missing or non-finite number is an
// error, not a line of output.
func (rep *report) write(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]value{}}
	for _, note := range rep.notes {
		fmt.Fprintln(w, "#", note)
	}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
