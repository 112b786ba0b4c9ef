// Command seda-serve exposes the evaluation pipeline as an HTTP
// service — sweep-as-a-service. Every response is produced through a
// content-addressed result cache (internal/rescache): results are
// keyed by a canonical SHA-256 of (NPU config, network topology,
// scheme set, pipeline version), identical concurrent requests
// coalesce onto a single pipeline evaluation, and an optional disk
// layer survives restarts.
//
// The server is production-shaped: header/read/write/idle timeouts
// bound slow clients, a bounded in-flight semaphore sheds distinct
// concurrent evaluations with 503 once saturated, sweep responses
// carry a strong ETag derived from the config fingerprint (so
// If-None-Match revalidation costs microseconds), and SIGINT/SIGTERM
// drain in-flight requests before exiting. The implementation lives in
// internal/serve, shared with the seda-router cluster front-end; this
// command is the flag-parsing shell.
//
// Endpoints:
//
//	GET /healthz                   liveness probe (build identity)
//	GET /readyz                    readiness: 503 while draining or saturated
//	GET /metrics                   cache + request counters (Prometheus text)
//	GET /v1/workloads              the 13 benchmark workloads
//	GET /v1/schemes                the protection schemes and their features
//	GET /v1/sweep?npu=server&fig=5a[&workloads=let,ncf][&format=csv]
//	                               figure series (JSON, or CSV per Accept)
//	GET /v1/explore?spec=rows=16:256:2x,channels=2|4[&base=edge][&workloads=let]
//	                               design-space exploration: surrogate-pruned
//	                               grid sweep with cycle-accurate confirmation
//	                               of the Pareto candidates
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/serve"
	"repro/seda"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8344", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the actual listen address to this file once bound (for -addr with port 0)")
	cacheDir := flag.String("cache-dir", "auto", "disk cache directory; \"auto\" = <user cache dir>/seda-repro, \"off\" = memory only")
	memEntries := flag.Int("mem-entries", 0, "in-memory cache entries (0 = default)")
	workers := flag.Int("workers", 0, "workload-level worker pool size per sweep (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 4, "concurrent pipeline evaluations before shedding with 503 (0 = unlimited; cache hits and coalesced identical requests never count)")
	readTimeout := flag.Duration("read-timeout", 10*time.Second, "full-request read timeout")
	writeTimeout := flag.Duration("write-timeout", 3*time.Minute, "response write timeout (must cover a cold full-suite evaluation)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle timeout")
	requestTimeout := flag.Duration("request-timeout", 2*time.Minute, "per-request evaluation deadline; expiry answers 504 (0 = none, bounded by -write-timeout)")
	computeTimeout := flag.Duration("compute-timeout", 10*time.Minute, "per-computation deadline in the result cache; a stuck evaluation frees its slot at expiry (0 = none)")
	shutdownGrace := flag.Duration("shutdown-grace", 30*time.Second, "how long SIGINT/SIGTERM waits for in-flight requests before forcing exit")
	maxExplorePoints := flag.Int("max-explore-points", serve.DefaultMaxExplorePoints, "largest grid /v1/explore accepts (points before validation)")
	jitterSeed := flag.Uint64("jitter-seed", 0, "seed for the Retry-After jitter so shed/readiness advice replays exactly (0 = random; set it for reproducible load-generator runs)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for the pprof profiling surface (empty = disabled; keep it on localhost)")
	debugAddrFile := flag.String("debug-addr-file", "", "write the actual debug listen address to this file once bound (for -debug-addr with port 0)")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()

	if *version {
		b := obs.ReadBuild()
		dirty := ""
		if b.Dirty {
			dirty = " (dirty)"
		}
		fmt.Printf("seda-serve %s revision %s%s pipeline %s %s\n",
			b.ModuleVersion, b.Revision, dirty, seda.PipelineVersion, b.GoVersion)
		return
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	// Chaos-test fault sites arm from the environment, e.g.
	// SEDA_FAILPOINTS='rescache.compute=sleep(30s)'. Unset means every
	// site stays a no-op.
	if err := failpoint.LoadEnv(); err != nil {
		fatal(err)
	}

	opts := seda.SuiteOptions{Workers: *workers}

	dir := rescache.ResolveDir(*cacheDir)
	cache, err := rescache.New(rescache.Options{
		MaxEntries:          *memEntries,
		Dir:                 dir,
		MaxInflightComputes: *maxInflight,
		ComputeTimeout:      *computeTimeout,
	})
	if err != nil {
		fatal(err)
	}

	api := serve.NewAPI(cache, opts, *requestTimeout)
	api.MaxExplore = *maxExplorePoints
	api.Log = logger
	if *jitterSeed != 0 {
		api.SeedJitter(*jitterSeed)
	}
	if dir != "" {
		logger.Info("disk cache enabled", slog.String("dir", dir))
	}

	srv := serve.NewServer(serve.ServerConfig{
		Addr:          *addr,
		AddrFile:      *addrFile,
		ReadTimeout:   *readTimeout,
		WriteTimeout:  *writeTimeout,
		IdleTimeout:   *idleTimeout,
		ShutdownGrace: *shutdownGrace,
		OnDrain:       func() { api.SetDraining(true) },
		Log:           logger,
	})
	if _, err := srv.Listen(); err != nil {
		fatal(err)
	}
	b := obs.ReadBuild()
	logger.Info("build",
		slog.String("version", b.ModuleVersion),
		slog.String("revision", b.Revision),
		slog.String("pipeline", seda.PipelineVersion),
		slog.String("go", b.GoVersion),
	)

	// The profiling surface gets its own listener and server: profiles
	// and traces never share a port with (or leak onto) the public API.
	if *debugAddr != "" {
		if _, err := serve.ServeDebug(*debugAddr, *debugAddrFile, logger); err != nil {
			fatal(err)
		}
	}

	// Serve until a termination signal, then drain: the lifecycle stops
	// the listener and waits for in-flight requests (a running sweep
	// keeps its slot) up to the grace period.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx, api.Handler()); err != nil {
		logger.Error("exit", slog.Any("err", err))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seda-serve:", err)
	os.Exit(1)
}
