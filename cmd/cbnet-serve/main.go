// Command cbnet-serve loads checkpoints written by cbnet-train and serves
// the CBNet pipeline over HTTP through the batched inference engine (see
// internal/serve for the API and internal/engine for batching/routing).
//
// Usage:
//
//	cbnet-serve -ckpt ./ckpt -dataset fmnist -addr :8080 -workers 4 -max-batch 32
//	curl -X POST localhost:8080/classify -H 'Content-Type: application/json' \
//	     -d '{"pixels": [ ...784 floats... ]}'
//	curl localhost:8080/stats
//
// -workers is how the server uses its cores: that many inference goroutines
// per route, each running one micro-batch at a time on the goroutine that
// took it. Nothing beneath a worker fans out.
//
// -degrade arms graceful degradation: the server mounts a pruned early-exit
// variant as an extra engine route, and a request whose preferred route's
// queue is half full is answered by the next route down the ladder hard →
// easy → pruned instead of waiting or being refused (watch
// cbnet_requests_diverted_total and cbnet_route_images_total on /metrics).
// The choice is made per request from the queues as they are; nothing is
// refused for lack of room until every route is half full. -default-deadline
// bounds each request's end-to-end time; clients override per request with
// the X-CBNet-Deadline-Ms header. The -chaos-* flags wire a fault injector
// into the inference path for overload drills — never enable them in
// production.
//
// -resilience (on by default) arms the fault-isolation layer: failed
// micro-batches are bisected so one bad input cannot fail its co-batched
// neighbours, convicted poison pills are quarantined and rejected 422 at
// admission, each route carries a circuit breaker that diverts traffic off
// a failing variant, and a retry budget bounds the extra inference work.
// GET /readyz reports not-ready while draining, while no route has room, or
// while a serving route's breaker is open.
//
// SIGINT/SIGTERM trigger a graceful shutdown: /readyz flips to 503, the
// listener stops, in-flight requests drain through the engine, a final
// flight-recorder dump lands in -flight-dir (when set), then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cbnet/internal/chaos"
	"cbnet/internal/compress"
	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/engine"
	"cbnet/internal/models"
	"cbnet/internal/rng"
	"cbnet/internal/serve"
)

func main() {
	var (
		ckpt      = flag.String("ckpt", "ckpt", "checkpoint directory from cbnet-train")
		name      = flag.String("dataset", "mnist", "dataset family: mnist, fmnist, kmnist")
		addr      = flag.String("addr", ":8080", "listen address")
		devName   = flag.String("device", "RaspberryPi4", "device profile for latency estimates")
		workers   = flag.Int("workers", 0, "inference workers per route, the server's only parallelism (0 = auto: GOMAXPROCS/2)")
		maxBatch  = flag.Int("max-batch", 32, "micro-batch flush size")
		maxWait   = flag.Duration("max-wait", 2*time.Millisecond, "micro-batch flush deadline")
		queue     = flag.Int("queue-depth", 256, "per-route admission queue bound")
		threshold = flag.Float64("hardness-threshold", engine.DefaultHardnessThreshold, "route images scoring at or above this to the full AE path")
		noRoute   = flag.Bool("no-routing", false, "disable hardness routing (always convert)")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error (debug logs every request)")
		pprofOn   = flag.Bool("pprof", false, "mount Go's profiler under /debug/pprof (exposes stacks and heap; keep off on shared networks)")
		demo      = flag.Bool("demo", false, "serve an untrained pipeline without checkpoints — endpoint smoke tests only, predictions are meaningless")
		sloP99    = flag.Duration("slo-p99", 50*time.Millisecond, "latency SLO: 99% of successful requests complete within this wall time")
		sloAvail  = flag.Float64("slo-availability", 0.999, "availability SLO target in (0,1): non-5xx responses over all terminal responses")
		flightDir = flag.String("flight-dir", "", "directory for flight-recorder auto-dumps on SLO burn trips and 503 bursts (empty keeps dumps in memory, served at /debug/flight)")

		deadline     = flag.Duration("default-deadline", 0, "per-request deadline applied when the client sends no X-CBNet-Deadline-Ms header (0 = none)")
		degrade      = flag.Bool("degrade", false, "graceful degradation: mount a pruned variant and spill each request whose preferred route is half full down the ladder hard -> easy -> pruned")
		resilienceOn = flag.Bool("resilience", true, "arm the fault-isolation layer: batch bisection, poison-pill quarantine, per-route circuit breakers, retry budget")

		chaosLatency    = flag.String("chaos-infer-latency", "", "inject per-batch inference latency, e.g. 'hard=12ms,easy=4ms' ('all=...' sets the default); drills only")
		chaosErrEvery   = flag.Int64("chaos-error-every", 0, "fail every Nth inference batch with an injected error (0 = off); drills only")
		chaosPanicEvery = flag.Int64("chaos-panic-every", 0, "panic every Nth inference batch to exercise worker recovery (0 = off); drills only")
		chaosPoison     = flag.Float64("chaos-poison-pixel", 0, "panic any batch holding a row whose first pixel equals this value bit-exactly — a content-keyed poison pill for quarantine drills (0 = off); drills only")
		chaosStuck      = flag.String("chaos-stuck-route", "", "fail every batch on the named route ('all' wedges every route) until restart — a breaker drill (empty = off); drills only")
	)
	flag.Parse()
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbnet-serve:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	cfg := engine.Config{
		Workers:           *workers,
		MaxBatch:          *maxBatch,
		MaxWait:           *maxWait,
		QueueDepth:        *queue,
		HardnessThreshold: *threshold,
		DisableRouting:    *noRoute,
		Degrade:           engine.DegradeConfig{Enabled: *degrade},
		Resilience:        engine.ResilienceConfig{Enabled: *resilienceOn},
	}
	if *chaosLatency != "" || *chaosErrEvery > 0 || *chaosPanicEvery > 0 || *chaosPoison != 0 || *chaosStuck != "" {
		inj := chaos.NewInjector()
		lats, err := parseChaosLatency(*chaosLatency)
		if err != nil {
			logger.Error("exiting", "err", err)
			os.Exit(1)
		}
		for route, d := range lats {
			inj.SetLatency(route, d)
		}
		inj.SetErrorEvery(*chaosErrEvery)
		inj.SetPanicEvery(*chaosPanicEvery)
		inj.SetPoisonValue(float32(*chaosPoison))
		stuck := *chaosStuck
		if stuck == "all" {
			stuck = "*"
		}
		inj.SetStuck(stuck)
		cfg.Fault = inj
		logger.Warn("chaos injection armed — drills only, never production",
			"latency", *chaosLatency, "errorEvery", *chaosErrEvery, "panicEvery", *chaosPanicEvery,
			"poisonPixel", *chaosPoison, "stuckRoute", *chaosStuck)
	}
	opts := serve.Options{
		EnablePprof:     *pprofOn,
		Logger:          logger,
		SLOLatencyP99:   *sloP99,
		SLOAvailability: *sloAvail,
		FlightDir:       *flightDir,
		DefaultDeadline: *deadline,
	}
	if *sloAvail <= 0 || *sloAvail >= 1 {
		logger.Error("exiting", "err", fmt.Errorf("slo-availability %v must be in (0,1)", *sloAvail))
		os.Exit(1)
	}
	if err := run(*ckpt, *name, *addr, *devName, cfg, opts, *demo); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// buildLogger assembles the process logger from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("log-level %q: %w", level, err)
	}
	ho := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, ho)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, ho)), nil
	default:
		return nil, fmt.Errorf("log-format %q: want text or json", format)
	}
}

// parseChaosLatency parses a "route=duration,route=duration" injection
// spec; the pseudo-route "all" sets the default latency applied to routes
// without a specific entry.
func parseChaosLatency(spec string) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		route, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || route == "" {
			return nil, fmt.Errorf("chaos-infer-latency: %q is not route=duration", part)
		}
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("chaos-infer-latency: bad duration in %q", part)
		}
		if route == "all" {
			route = ""
		}
		out[route] = d
	}
	return out, nil
}

// validateEngineConfig rejects nonsensical flag combinations before the
// engine normalises zero values to defaults.
func validateEngineConfig(cfg engine.Config) error {
	if cfg.MaxBatch < 0 {
		return fmt.Errorf("max-batch %d must be non-negative (0 selects the default)", cfg.MaxBatch)
	}
	if cfg.MaxWait < 0 {
		return fmt.Errorf("max-wait %v must be non-negative (0 selects the default)", cfg.MaxWait)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("workers %d must be non-negative", cfg.Workers)
	}
	if cfg.QueueDepth < 0 {
		return fmt.Errorf("queue-depth %d must be non-negative (0 selects the default)", cfg.QueueDepth)
	}
	// The engine treats 0 as "use the default", so an explicit 0 here
	// would silently route with the 1.05 default instead of sending
	// everything to the AE path — reject it and point at -no-routing.
	if cfg.HardnessThreshold <= 0 {
		return fmt.Errorf("hardness-threshold %v must be positive (use -no-routing to convert every image)", cfg.HardnessThreshold)
	}
	return nil
}

// buildServer assembles the HTTP server from checkpoints (or, in demo
// mode, from freshly initialised untrained networks); split from run so
// tests can exercise validation and loading without binding a socket.
func buildServer(ckpt, name, devName string, cfg engine.Config, opts serve.Options, demo bool) (*serve.Server, error) {
	family, err := dataset.FamilyByName(name)
	if err != nil {
		return nil, err
	}
	prof, err := device.ByName(devName)
	if err != nil {
		return nil, err
	}
	if err := validateEngineConfig(cfg); err != nil {
		return nil, err
	}

	r := rng.New(1)
	branchy := models.NewBranchyLeNet(r, models.DefaultThreshold(family))
	ae := models.NewTableIAE(family, r)
	if !demo {
		if err := models.LoadBranchy(filepath.Join(ckpt, "branchy.ck"), branchy); err != nil {
			return nil, fmt.Errorf("loading branchy.ck: %w", err)
		}
		if err := models.LoadFile(filepath.Join(ckpt, "ae.ck"), ae.Net); err != nil {
			return nil, fmt.Errorf("loading ae.ck: %w", err)
		}
	}
	pipe := &core.Pipeline{AE: ae, Classifier: models.ExtractLightweight(branchy)}
	if cfg.Degrade.Enabled {
		// The ladder's last route is a structurally-pruned copy of the
		// early-exit network, mounted as a first-class engine route. It
		// shares no tensors with the serving classifier, so pruning cannot
		// perturb the healthy path.
		pruned, err := compress.PruneLightweight(pipe.Classifier,
			compress.LightweightPruneConfig{Conv1Keep: 2. / 3., BranchKeep: 2. / 3.})
		if err != nil {
			return nil, fmt.Errorf("building pruned variant: %w", err)
		}
		cfg.Variants = append(cfg.Variants, engine.Variant{Name: "pruned", Net: pruned})
	}
	return serve.NewWithOptions(pipe, engine.New(pipe, cfg), prof, family, opts), nil
}

func run(ckpt, name, addr, devName string, cfg engine.Config, opts serve.Options, demo bool) error {
	srv, err := buildServer(ckpt, name, devName, cfg, opts, demo)
	if err != nil {
		return err
	}
	defer srv.Close()

	// Funnel the process default logger through the flight recorder's log
	// buffer so auto-dumps carry the last records from the whole process,
	// not just the server's own request lines.
	slog.SetDefault(slog.New(srv.FlightLogs().Wrap(slog.Default().Handler())))

	httpSrv := &http.Server{Addr: addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	ecfg := srv.Engine.Config()
	slog.Info("serving",
		"dataset", srv.Family.String(),
		"addr", addr,
		"profile", srv.Profile.Name,
		"workersPerRoute", ecfg.Workers,
		"maxBatch", ecfg.MaxBatch,
		"maxWait", ecfg.MaxWait,
		"pprof", opts.EnablePprof,
		"sloP99", opts.SLOLatencyP99,
		"sloAvailability", opts.SLOAvailability,
		"flightDir", opts.FlightDir,
		"defaultDeadline", opts.DefaultDeadline,
		"degradeLadder", srv.Engine.DegradeLadder(),
		"resilience", ecfg.Resilience.Enabled,
		"demo", demo)
	if demo {
		slog.Warn("demo mode: pipeline is untrained, predictions are meaningless")
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	slog.Info("shutting down")
	// Flip /readyz to 503 before the listener stops so load balancers
	// steer new traffic away while in-flight requests finish.
	srv.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// Every in-flight request has now finished: capture the final
	// request-lifecycle window before the process forgets it (a file only
	// when -flight-dir is set).
	srv.DumpFlight("shutdown")
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
