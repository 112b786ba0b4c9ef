// Package cluster is the fault-tolerant front-end over a fleet of
// seda-serve replicas: cmd/seda-router is a thin flag shell over the
// Router type here.
//
// The routing policy is config-fingerprint affinity: /v1/sweep and
// /v1/explore requests resolve — with exactly the same code the
// replica uses (serve.ResolveSweep, explore.ParseRequest) — to a
// canonical affinity key, and rendezvous hashing over that key picks
// the replica whose in-memory rescache almost certainly already holds
// the result. Failover candidates are ranked least-loaded first, so a
// dead affinity home spreads its keys by load instead of electing a
// second fixed home.
//
// The robustness core, in the order a request meets it:
//
//   - Per-replica circuit breakers (closed → open on consecutive
//     transport failures/timeouts, open → half-open on a cooldown,
//     half-open → closed on one success) exclude broken replicas from
//     ranking entirely.
//   - Active health checking probes every replica's /readyz on an
//     interval: alive-but-saturated (or draining) replicas are
//     deprioritized before requests shed, dead ones feed their breaker.
//   - Bounded retry with exponential backoff + jitter against a
//     per-request attempt budget: a request never consumes more than
//     RetryBudget upstream attempts, and only idempotent GET/HEAD
//     requests are routed at all (the replica API is read-only).
//   - Graceful degradation: when no replica can answer, a cache-only
//     internal/serve API over the shared disk-cache tier serves
//     already-published results — marked stale via X-Seda-Stale and a
//     Warning header — before the router admits defeat with a 503.
//
// Replica attempts are buffered in full before a byte reaches the
// client, so a replica dying mid-body is a retryable event, not a
// truncated client response — the chaos suites pin exactly this
// transparency.
//
// Every route runs behind the replica's own serve.Middleware (request
// IDs, GET/HEAD only, panic containment, latency histogram, access
// line), so both tiers answer, count and log a request the same way;
// the request ID it puts on the context also tags the router's
// failure lines. The router keeps no tracer: a replica's X-Seda-Timing
// header passes through untouched.
package cluster

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/seda"
)

// Failpoint sites. The router's failure handling is driven through
// these in the chaos suites; see internal/failpoint for the spec
// grammar (probability modifiers model flaky, not just dead, links).
const (
	// FailpointDial fires before each upstream attempt's HTTP call:
	// error(...) models a dial failure, sleep(...) a slow replica.
	FailpointDial = "cluster.dial"
	// FailpointBody fires after an upstream response body has been
	// read: error(...) models a replica dying mid-body.
	FailpointBody = "cluster.body"
	// FailpointHealth fires inside each health probe: with a
	// probability modifier it models a flapping health surface.
	FailpointHealth = "cluster.health"
)

// Options configures a Router. Zero values take the documented
// defaults; Replicas is the only required field.
type Options struct {
	Replicas []string // base URLs (host:port or http://host:port), one per replica

	// RetryBudget caps upstream attempts per request, first try
	// included — the invariant is "a request never consumes more than
	// RetryBudget attempts". Default 3.
	RetryBudget int
	// BackoffBase/BackoffMax shape the exponential backoff between
	// retry waves; the actual wait is uniformly jittered over
	// (0, delay] so a burst of failed-over requests does not retry in
	// lockstep. Defaults 25ms and 1s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// AttemptTimeout bounds each upstream attempt; expiry counts as a
	// replica timeout (breaker failure) and triggers failover. Default
	// 3m — it must cover a cold full-suite evaluation on a replica.
	AttemptTimeout time.Duration

	// BreakerThreshold consecutive transport failures/timeouts open a
	// replica's breaker for BreakerCooldown. Defaults 3 and 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// HealthInterval spaces active /readyz probes; 0 disables the
	// background checker (tests drive ProbeNow directly). Default when
	// StartHealth is used with 0: 1s. HealthTimeout bounds one probe
	// (default 2s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration

	// MaxBodyBytes caps a buffered upstream response. Default 64 MiB.
	MaxBodyBytes int64

	// Degraded, when non-nil, is the cache-only internal/serve API over
	// the shared disk-cache tier: the stale-serving fallback and the
	// local authority for the static catalog routes.
	Degraded *serve.API

	Log       *slog.Logger      // nil = discard
	Transport http.RoundTripper // nil = http.DefaultTransport (injectable for tests)
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.RetryBudget <= 0 {
		opts.RetryBudget = 3
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 25 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = time.Second
	}
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = 3 * time.Minute
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 5 * time.Second
	}
	if opts.HealthTimeout <= 0 {
		opts.HealthTimeout = 2 * time.Second
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	return opts
}

// Router is the cluster front-end handler plus the state behind it.
// Construct with New, mount Handler, and (in production) run
// StartHealth; all methods are safe for concurrent use.
type Router struct {
	opts     Options
	replicas []*Replica
	client   *http.Client
	degraded http.Handler // non-nil iff opts.Degraded is

	metrics *routerMetrics
	log     *slog.Logger
	build   obs.Build

	draining atomic.Bool
}

// New builds a Router over the given replica fleet.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: at least one replica is required")
	}
	log := opts.Log
	if log == nil {
		log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	m := newRouterMetrics()
	seen := make(map[string]bool)
	replicas := make([]*Replica, 0, len(opts.Replicas))
	for _, raw := range opts.Replicas {
		u, err := parseReplicaURL(raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		name := u.Host
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate replica %s", name)
		}
		seen[name] = true
		rep := &Replica{
			Name:    name,
			url:     u,
			breaker: newBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		}
		// Optimistic start: traffic flows immediately after boot with
		// full affinity; the first probe round corrects the picture
		// within one HealthInterval.
		rep.alive.Store(true)
		rep.ready.Store(true)
		m.registerReplica(rep)
		replicas = append(replicas, rep)
	}
	rt := &Router{
		opts:     opts,
		replicas: replicas,
		client:   &http.Client{Transport: opts.Transport},
		metrics:  m,
		log:      log,
		build:    obs.ReadBuild(),
	}
	if opts.Degraded != nil {
		rt.degraded = opts.Degraded.Handler()
	}
	return rt, nil
}

// Replicas exposes the fleet for inspection (tests, healthz).
func (rt *Router) Replicas() []*Replica { return rt.replicas }

// SetDraining flips the router's own readiness surface; the listener
// lifecycle calls it when shutdown begins.
func (rt *Router) SetDraining(v bool) { rt.draining.Store(v) }

// Handler mounts the router's HTTP surface.
func (rt *Router) Handler() http.Handler {
	m := rt.metrics
	mw := &serve.Middleware{Requests: m.reqs, Panics: m.panics, Duration: m.reqDur, Log: rt.log}
	mux := http.NewServeMux()
	handle := func(route string, h http.HandlerFunc) { mux.HandleFunc(route, mw.Wrap(route, h)) }
	handle("/healthz", rt.handleHealthz)
	handle("/readyz", rt.handleReadyz)
	handle("/metrics", rt.handleMetrics)
	handle("/v1/workloads", rt.catalog("/v1/workloads"))
	handle("/v1/schemes", rt.catalog("/v1/schemes"))
	handle("/v1/sweep", rt.handleSweep)
	handle("/v1/explore", rt.handleExplore)
	return mux
}

// handleSweep routes one sweep by fingerprint affinity. Parameter
// resolution runs the same code as the replica handler; a request that
// fails to resolve forwards without affinity and lets the replica
// answer the 400, so error wording never drifts between tiers.
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key := ""
	if npu, nets, err := serve.ResolveSweep(q.Get("fig"), q.Get("npu"), q.Get("workloads")); err == nil {
		key = serve.SweepAffinityKey(npu, nets)
	}
	rt.forward(w, r, "/v1/sweep", key)
}

// handleExplore routes one exploration the same way, resolved through
// the replica handler's explore.ParseRequest.
func (rt *Router) handleExplore(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key := ""
	if req, err := explore.ParseRequest(q.Get("spec"), q.Get("base"), q.Get("workloads"), q.Get("scheme")); err == nil {
		key = serve.ExploreAffinityKey(req)
	}
	rt.forward(w, r, "/v1/explore", key)
}

// catalog serves the static catalog routes. They are identical on
// every instance of one build, so the router answers them locally when
// it has a degraded API (same binary, same catalog) and only proxies
// when it does not.
func (rt *Router) catalog(route string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rt.degraded != nil {
			rt.degraded.ServeHTTP(w, r)
			return
		}
		rt.forward(w, r, route, "")
	}
}

// forward runs the retry loop and writes the outcome: the first
// successful upstream response verbatim (plus the X-Seda-Replica tag),
// else a stale hit from the shared cache tier, else 503.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, route, key string) {
	cands := rt.rank(key)
	var (
		resp *bufferedResp
		idx  int
		err  error
	)
	if len(cands) == 0 {
		err = errNoReplica
	} else {
		resp, idx, err = rt.tryCandidates(r, cands)
	}
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nothing to answer
		}
		if (route == "/v1/sweep" || route == "/v1/explore") && rt.tryStale(w, r) {
			return
		}
		rt.metrics.unserved.Inc()
		rt.log.Warn("request unserved",
			slog.String("id", obs.RequestID(r.Context())),
			slog.String("route", route),
			slog.Any("err", err),
		)
		// Jittered advice, same reasoning as the replica's Retry-After:
		// a fleet-wide outage must not heal into a retry stampede.
		w.Header().Set("Retry-After", strconv.Itoa(2+rand.IntN(3)))
		http.Error(w, fmt.Sprintf("no replica available: %v", err), http.StatusServiceUnavailable)
		return
	}
	if idx > 0 {
		rt.metrics.failover.Inc()
	}
	resp.writeTo(w)
}

// tryStale answers from the degraded cache-only tier when the fleet
// cannot: a 200/304 there is a completed result some replica already
// published to the shared disk cache. The response is marked stale —
// the fleet might have served a fresher pipeline epoch — via
// X-Seda-Stale plus an RFC 7234 Warning, so clients can distinguish
// degraded service from healthy service. Anything else (a cache-only
// miss surfaces as 503 inside the degraded API) reports false and the
// caller falls through to the router's own 503.
func (rt *Router) tryStale(w http.ResponseWriter, r *http.Request) bool {
	if rt.degraded == nil {
		return false
	}
	var rec serve.ResponseBuffer
	rt.degraded.ServeHTTP(&rec, r)
	if st := rec.Status(); st != http.StatusOK && st != http.StatusNotModified {
		return false
	}
	h := rec.Header()
	h.Set("X-Seda-Stale", "true")
	h.Set("Warning", `110 seda-router "stale: served from the shared cache tier, no replica available"`)
	rec.CopyTo(w)
	rt.metrics.staleServed.Inc()
	return true
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	type replicaJSON struct {
		Name    string `json:"name"`
		Alive   bool   `json:"alive"`
		Ready   bool   `json:"ready"`
		Breaker string `json:"breaker"`
	}
	doc := struct {
		Status   string        `json:"status"`
		Version  string        `json:"version"`
		Revision string        `json:"revision"`
		Pipeline string        `json:"pipeline"`
		Go       string        `json:"go"`
		Replicas []replicaJSON `json:"replicas"`
	}{
		Status:   "ok",
		Version:  rt.build.ModuleVersion,
		Revision: rt.build.Revision,
		Pipeline: seda.PipelineVersion,
		Go:       rt.build.GoVersion,
	}
	for _, rep := range rt.replicas {
		doc.Replicas = append(doc.Replicas, replicaJSON{
			Name:    rep.Name,
			Alive:   rep.Alive(),
			Ready:   rep.Ready(),
			Breaker: rep.BreakerState().String(),
		})
	}
	serve.WriteJSON(w, http.StatusOK, doc)
}

// handleReadyz: the router is ready while it can route to at least one
// breaker-admitted replica. Draining (shutdown began) and a fully
// unavailable fleet — even one the stale tier could partially cover —
// answer 503, so an upstream load balancer steers traffic to another
// router instance first.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	doc := struct {
		Status   string `json:"status"`
		Eligible int    `json:"eligible"`
		Total    int    `json:"total"`
	}{Status: "ready", Total: len(rt.replicas)}
	for _, rep := range rt.replicas {
		if rep.breaker.Allow() && rep.Alive() {
			doc.Eligible++
		}
	}
	switch {
	case rt.draining.Load():
		doc.Status = "draining"
	case doc.Eligible == 0 && rt.degraded != nil:
		doc.Status = "degraded"
	case doc.Eligible == 0:
		doc.Status = "unavailable"
	}
	code := http.StatusOK
	if doc.Status != "ready" {
		code = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, code, doc)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := rt.metrics
	for _, rep := range rt.replicas {
		boolGauge(rep.upG, rep.Alive())
		boolGauge(rep.readyG, rep.Ready())
		rep.inflightG.Set(float64(rep.inflight.Load()))
		rep.breakerG.Set(float64(rep.BreakerState()))
	}
	m.runtime.Collect()
	w.Header().Set("Content-Type", obs.PromContentType)
	m.reg.WriteProm(w) //nolint:errcheck // client gone mid-stream
}

func boolGauge(g *obs.Gauge, v bool) {
	if v {
		g.Set(1)
	} else {
		g.Set(0)
	}
}
