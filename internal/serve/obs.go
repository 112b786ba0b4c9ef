package serve

import (
	"time"

	"repro/internal/obs"
)

// serverMetrics is the server's Prometheus registry. Two kinds of
// series live here:
//
//   - Native instruments observed on the request path: the duration
//     histograms and the request counter.
//   - Mirror counters and gauges for state owned elsewhere — the
//     cache's Stats, plus seda_panics_total, which sums the
//     middleware's handler panics with the cache's compute panics.
//     Those are Set from ONE snapshot per scrape in handleMetrics, so a
//     scrape is internally consistent (hits+misses+coalesced accounting
//     from the same instant) and the scrape path takes the cache lock
//     exactly once.
//
// Series names predate this registry (the CI smoke job and dashboards
// grep them), so they are frozen: seda_cache_* and
// seda_http_requests_total keep their PR 5 spellings.
type serverMetrics struct {
	reg *obs.Registry

	reqDur     *obs.HistogramVec // by route pattern
	stageDur   *obs.HistogramVec // by pipeline stage (fed by Tracer.OnEnd)
	computeDur *obs.Histogram    // rescache compute executions only

	httpReqs      *obs.Counter
	handlerPanics obs.Counter // unregistered; mirrored into panics
	panics        *obs.Counter
	shed          *obs.Counter
	hits          *obs.Counter
	diskHits      *obs.Counter
	coalesced     *obs.Counter
	misses        *obs.Counter
	errors        *obs.Counter
	diskErrors    *obs.Counter
	entries       *obs.Gauge
	inflight      *obs.Gauge

	runtime *obs.RuntimeGauges
}

func newServerMetrics(build obs.Build) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg: r,
		reqDur: r.HistogramVec("seda_request_duration_seconds",
			"HTTP request latency by route", "route"),
		stageDur: r.HistogramVec("seda_stage_duration_seconds",
			"pipeline stage latency by stage (span durations)", "stage"),
		computeDur: r.Histogram("seda_compute_duration_seconds",
			"result-cache compute execution latency (cold pipeline evaluations)"),

		httpReqs: r.Counter("seda_http_requests_total",
			"HTTP requests received"),
		panics: r.Counter("seda_panics_total",
			"panics recovered (handler middleware + cache computations)"),
		shed: r.Counter("seda_cache_shed_total",
			"sweep evaluations shed at the bounded compute capacity"),
		hits: r.Counter("seda_cache_hits_total",
			"sweep lookups served from the in-memory cache"),
		diskHits: r.Counter("seda_cache_disk_hits_total",
			"sweep lookups served from the disk cache"),
		coalesced: r.Counter("seda_cache_coalesced_total",
			"sweep lookups coalesced onto an in-flight evaluation"),
		misses: r.Counter("seda_cache_misses_total",
			"sweep lookups that ran a fresh pipeline evaluation"),
		errors: r.Counter("seda_cache_errors_total",
			"pipeline evaluations that failed"),
		diskErrors: r.Counter("seda_cache_disk_errors_total",
			"disk cache IO failures and integrity-check rejections (reads + writes)"),
		entries: r.Gauge("seda_cache_entries",
			"entries resident in the in-memory cache"),
		inflight: r.Gauge("seda_cache_inflight",
			"pipeline evaluations currently executing"),

		runtime: obs.NewRuntimeGauges(r),
	}
	RegisterBuildInfo(r, build)
	return m
}

// observeStage is the Tracer.OnEnd hook: every span that ends during a
// request lands in the per-stage histogram, and compute spans (cold
// pipeline evaluations inside the result cache) additionally feed the
// dedicated compute histogram the capacity alerts watch.
func (s *API) observeStage(name string, d time.Duration) {
	s.metrics.stageDur.With(name).Observe(d)
	if name == obs.StageCompute {
		s.metrics.computeDur.Observe(d)
	}
}
