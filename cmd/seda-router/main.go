// Command seda-router is the fault-tolerant front-end over a fleet of
// seda-serve replicas. It routes /v1/sweep and /v1/explore by
// config-fingerprint affinity (rendezvous hashing over the same
// canonical fingerprints the result cache is keyed by, so identical
// configs always land on the replica whose rescache is warm), with
// least-loaded failover, active /readyz health checking, per-replica
// circuit breakers, bounded retry with exponential backoff + jitter,
// and graceful degradation: when every replica is down, a cache-only
// view of the shared disk-cache tier serves already-published results
// (marked X-Seda-Stale) before the router answers 503.
//
// A minimal three-replica deployment, sharing one disk cache:
//
//	seda-serve -addr :8441 -cache-dir /var/cache/seda &
//	seda-serve -addr :8442 -cache-dir /var/cache/seda &
//	seda-serve -addr :8443 -cache-dir /var/cache/seda &
//	seda-router -addr :8344 -replicas localhost:8441,localhost:8442,localhost:8443 \
//	            -cache-dir /var/cache/seda
//
// Endpoints mirror seda-serve: /v1/sweep, /v1/explore (proxied with
// affinity), /v1/workloads, /v1/schemes (answered locally — the
// catalog is identical on every instance of one build), plus the
// router's own /healthz (fleet view), /readyz and /metrics
// (seda_router_* series: per-replica up/ready/breaker/inflight gauges,
// retry/failover/stale counters, route latency histograms).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/serve"
	"repro/seda"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8345", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the actual listen address to this file once bound (for -addr with port 0)")
	replicas := flag.String("replicas", "", "comma-separated seda-serve replica addresses (host:port or http://host:port); required")
	cacheDir := flag.String("cache-dir", "auto", "shared disk-cache directory for the stale-serving tier; \"auto\" = <user cache dir>/seda-repro, \"off\" = no stale tier")
	retryBudget := flag.Int("retry-budget", 3, "max upstream attempts per request, first try included")
	backoffBase := flag.Duration("backoff-base", 25*time.Millisecond, "initial retry backoff (doubled each wave, fully jittered)")
	backoffMax := flag.Duration("backoff-max", time.Second, "retry backoff ceiling")
	attemptTimeout := flag.Duration("attempt-timeout", 3*time.Minute, "per-upstream-attempt deadline; expiry fails over (must cover a cold full-suite evaluation)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that open a replica's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker blocks traffic before half-opening")
	healthInterval := flag.Duration("health-interval", time.Second, "active /readyz probe interval")
	healthTimeout := flag.Duration("health-timeout", 2*time.Second, "per-probe deadline")
	maxExplorePoints := flag.Int("max-explore-points", serve.DefaultMaxExplorePoints, "largest grid the stale tier's /v1/explore accepts")
	readTimeout := flag.Duration("read-timeout", 10*time.Second, "full-request read timeout")
	writeTimeout := flag.Duration("write-timeout", 4*time.Minute, "response write timeout (must cover attempt retries of a cold evaluation)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle timeout")
	shutdownGrace := flag.Duration("shutdown-grace", 30*time.Second, "how long SIGINT/SIGTERM waits for in-flight requests before forcing exit")
	debugAddr := flag.String("debug-addr", "", "separate listen address for the pprof profiling surface (empty = disabled; keep it on localhost)")
	debugAddrFile := flag.String("debug-addr-file", "", "write the actual debug listen address to this file once bound")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()

	if *version {
		b := obs.ReadBuild()
		dirty := ""
		if b.Dirty {
			dirty = " (dirty)"
		}
		fmt.Printf("seda-router %s revision %s%s pipeline %s %s\n",
			b.ModuleVersion, b.Revision, dirty, seda.PipelineVersion, b.GoVersion)
		return
	}
	if *replicas == "" {
		fatal(fmt.Errorf("-replicas is required (comma-separated seda-serve addresses)"))
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if err := failpoint.LoadEnv(); err != nil {
		fatal(err)
	}

	// The degraded tier: a cache-only view of the shared disk cache. A
	// cached-result miss is ErrCacheOnly (503 inside the API), so it
	// runs no suite evaluation. A /v1/explore is not free, though:
	// explore.Run calibrates the surrogate and runs its pass in the
	// router before the first confirmation misses. It also answers the
	// static catalog routes authoritatively.
	var degraded *serve.API
	dir := rescache.ResolveDir(*cacheDir)
	cache, err := rescache.New(rescache.Options{Dir: dir, CacheOnly: true})
	if err != nil {
		fatal(err)
	}
	degraded = serve.NewAPI(cache, seda.DefaultSuiteOptions(), 0)
	degraded.MaxExplore = *maxExplorePoints
	degraded.Log = logger
	if dir != "" {
		logger.Info("stale tier over shared disk cache", slog.String("dir", dir))
	} else {
		logger.Info("no shared disk cache (-cache-dir off): stale tier serves catalog routes only")
	}

	rt, err := cluster.New(cluster.Options{
		Replicas:         strings.Split(*replicas, ","),
		RetryBudget:      *retryBudget,
		BackoffBase:      *backoffBase,
		BackoffMax:       *backoffMax,
		AttemptTimeout:   *attemptTimeout,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		HealthInterval:   *healthInterval,
		HealthTimeout:    *healthTimeout,
		Degraded:         degraded,
		Log:              logger,
	})
	if err != nil {
		fatal(err)
	}

	srv := serve.NewServer(serve.ServerConfig{
		Addr:          *addr,
		AddrFile:      *addrFile,
		ReadTimeout:   *readTimeout,
		WriteTimeout:  *writeTimeout,
		IdleTimeout:   *idleTimeout,
		ShutdownGrace: *shutdownGrace,
		OnDrain:       func() { rt.SetDraining(true) },
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
		slog.Int("replicas", len(rt.Replicas())),
	)

	if *debugAddr != "" {
		if _, err := serve.ServeDebug(*debugAddr, *debugAddrFile, logger); err != nil {
			fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt.StartHealth(ctx)
	if err := srv.Run(ctx, rt.Handler()); err != nil {
		logger.Error("exit", slog.Any("err", err))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seda-router:", err)
	os.Exit(1)
}
