// Command cbnet-serve loads checkpoints written by cbnet-train and serves
// the CBNet pipeline over HTTP through the batched inference engine (see
// internal/serve for the API and internal/engine for batching/routing).
//
// Usage:
//
//	cbnet-serve -ckpt ./ckpt -dataset fmnist -addr :8080 -workers 4
//	curl -X POST localhost:8080/classify -H 'Content-Type: application/json' \
//	     -d '{"pixels": [ ...784 floats... ]}'
//	curl localhost:8080/stats
//
// -workers is how the server uses its cores: that many inference goroutines
// per route, each running one micro-batch of up to 32 images at a time on
// the goroutine that took it. Nothing beneath a worker fans out.
//
// The server has one serving shape. Every image is scored against
// engine.DefaultHardnessThreshold: easy ones skip the autoencoder, hard ones
// take it, and a client that wants the paper's always-convert answer asks
// for it per request with "includeConverted". A pruned early-exit variant is
// mounted as a third route, and, as in every engine, a request whose
// preferred route's queue is half full is answered by the next route down
// the ladder hard → easy → pruned instead of waiting or being refused (watch
// cbnet_requests_diverted_total and cbnet_route_images_total on /metrics).
// The choice is made per request from the queues as they are; nothing is
// refused for lack of room until every route is half full. A client bounds a
// request's end-to-end time with the X-CBNet-Deadline-Ms header; the SLO
// objectives are fixed (see internal/serve). -chaos wires a fault injector
// into the inference path for drills (chaos.ParseSpec has the grammar) —
// never set it in production.
//
// The engine's fault-isolation layer is always armed, in this server as in
// every engine: failed micro-batches are bisected so one bad input cannot
// fail its co-batched neighbours, convicted poison pills are quarantined and
// rejected 422 at admission, and each route carries a circuit breaker, told
// once per batch whether the route could serve anyone, that diverts traffic
// off a failing route. GET /readyz reports not-ready while draining, while
// no route has room, or while a serving route's breaker is open.
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
		workers   = flag.Int("workers", 0, "inference workers per route, the server's only parallelism (0 = auto: GOMAXPROCS)")
		queue     = flag.Int("queue-depth", 256, "per-route admission queue bound; past half of it a route passes new requests down the ladder")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error (debug logs every request)")
		pprofOn   = flag.Bool("pprof", false, "mount Go's profiler under /debug/pprof (exposes stacks and heap; keep off on shared networks)")
		demo      = flag.Bool("demo", false, "serve an untrained pipeline without checkpoints — endpoint smoke tests only, predictions are meaningless")
		flightDir = flag.String("flight-dir", "", "directory for flight-recorder auto-dumps on SLO burn trips and 503 bursts (empty keeps dumps in memory, served at /debug/flight)")
		chaosSpec = flag.String("chaos", "", "inject faults into the inference path, e.g. 'latency=hard:25ms/easy:6ms,poison=0.77777,stuck=all,error-every=N,panic-every=N'; drills only")
	)
	flag.Parse()
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbnet-serve:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	cfg := engine.Config{Workers: *workers, QueueDepth: *queue}
	if *chaosSpec != "" {
		inj, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			logger.Error("exiting", "err", err)
			os.Exit(1)
		}
		cfg.Fault = inj
		logger.Warn("chaos injection armed — drills only, never production", "chaos", *chaosSpec)
	}
	opts := serve.Options{
		EnablePprof: *pprofOn,
		Logger:      logger,
		FlightDir:   *flightDir,
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

// validateEngineConfig rejects negative flag values before the engine
// normalises zero values to defaults.
func validateEngineConfig(cfg engine.Config) error {
	if cfg.Workers < 0 {
		return fmt.Errorf("workers %d must be non-negative", cfg.Workers)
	}
	if cfg.QueueDepth < 0 {
		return fmt.Errorf("queue-depth %d must be non-negative (0 selects the default)", cfg.QueueDepth)
	}
	return nil
}

// buildServer assembles the HTTP server from checkpoints (or, in demo
// mode, from freshly initialised untrained networks); split from run so
// tests can exercise validation and loading without binding a socket. cfg
// carries what the flags set; the serving shape around it is fixed here: the
// pruned rung mounted at the end of the ladder and the fault-isolation layer
// armed.
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
	// The ladder's last route is a structurally-pruned copy of the
	// early-exit network, mounted as a first-class engine route. It shares
	// no tensors with the serving classifier, so pruning cannot perturb the
	// healthy path.
	pruned, err := compress.PruneLightweight(pipe.Classifier,
		compress.LightweightPruneConfig{Conv1Keep: 2. / 3., BranchKeep: 2. / 3.})
	if err != nil {
		return nil, fmt.Errorf("building pruned variant: %w", err)
	}
	cfg.Variants = append(cfg.Variants, engine.Variant{Name: "pruned", Net: pruned})
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
		"pprof", opts.EnablePprof,
		"flightDir", opts.FlightDir,
		"degradeLadder", srv.Engine.DegradeLadder(),
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
