// Package serve is the reusable HTTP-serving framework shared by the
// seda-serve replica and the seda-router cluster front-end: the API
// surface over the cached evaluation pipeline (sweep, explore, catalog
// and health endpoints), the error→status mapping, and the listener
// lifecycle (bind, addr-file publication, signal-drained shutdown).
//
// Every route of both processes runs behind one Middleware (request
// counting, request IDs, the GET/HEAD restriction, panic containment,
// latency histograms, structured access lines). The replica adds only
// its inner wrapper inside it: the request deadline, the tracer that
// feeds the stage histograms, and ?debug=timing buffering.
//
// cmd/seda-serve is a thin flag-parsing shell over this package;
// cmd/seda-router reuses the same API type in cache-only mode as its
// graceful-degradation tier, the Middleware for its own routes, and
// the lifecycle for its own listener, so both processes share one
// hardened implementation.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/seda"
)

// FailpointSweep fires at the top of the sweep handler with the
// request context, after parameter validation and the ETag
// short-circuit — the last point before the evaluation pipeline. See
// internal/failpoint.
const FailpointSweep = "serve.sweep"

// server wires the HTTP surface to the cached evaluation pipeline. All
// state is read-only after construction except the cache (internally
// synchronized) and the metrics, so one server instance
// safely handles concurrent requests; identical concurrent sweeps
// coalesce onto one pipeline evaluation inside the cache's singleflight
// layer, and distinct ones beyond the cache's bounded compute capacity
// are shed with 503 (rescache.ErrSaturated).
type API struct {
	cache      *rescache.Cache
	opts       seda.SuiteOptions
	reqTimeout time.Duration // per-request deadline; 0 = none
	MaxExplore int           // /v1/explore grid-size cap; 0 = DefaultMaxExplorePoints
	draining   atomic.Bool   // set once shutdown begins; /readyz reports 503

	// jitter drives the Retry-After randomness on /readyz and shed
	// responses. It is a per-API seedable source (SeedJitter) instead of
	// the global rand so load-generator runs and the readiness tests can
	// pin the exact advice sequence; a mutex guards it because rand.Rand
	// is not safe for the concurrent handlers.
	jitterMu sync.Mutex
	jitter   *rand.Rand

	build   obs.Build
	metrics *serverMetrics
	Log     *slog.Logger // never nil; NewAPI defaults to discard; set before Handler
}

func NewAPI(cache *rescache.Cache, opts seda.SuiteOptions, reqTimeout time.Duration) *API {
	// One sweep fans its workloads over a worker pool, and every
	// uncached workload's evaluation takes one of the cache's bounded
	// compute slots. Clamp the pool to the slot count so a single cold
	// sweep can never saturate the capacity against itself and shed its
	// own workloads (slots are contended non-blocking; a lone sweep
	// holding at most `slots` of them always proceeds).
	if slots := cache.ComputeSlots(); slots > 0 {
		if opts.Workers == 0 || opts.Workers > slots {
			opts.Workers = slots
		}
	}
	build := obs.ReadBuild()
	return &API{
		cache:      cache,
		opts:       opts,
		reqTimeout: reqTimeout,
		build:      build,
		metrics:    newServerMetrics(build),
		Log:        slog.New(slog.NewJSONHandler(io.Discard, nil)),
		jitter:     rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64())),
	}
}

// SeedJitter makes the Retry-After jitter deterministic: two APIs
// seeded identically emit identical advice sequences. Production keeps
// the random default (lockstep avoidance needs no reproducibility);
// tests and measured load-generator runs seed it so shed/readiness
// behavior replays exactly.
func (s *API) SeedJitter(seed uint64) {
	s.jitterMu.Lock()
	defer s.jitterMu.Unlock()
	s.jitter = rand.New(rand.NewPCG(seed, seed))
}

// SetDraining flips the readiness surface: once draining, /readyz
// answers 503 so a routing tier stops sending new work, while /healthz
// stays 200 — the process is alive and finishing in-flight requests.
// The lifecycle (Server.Run) calls this when shutdown begins.
func (s *API) SetDraining(v bool) { s.draining.Store(v) }

func (s *API) Handler() http.Handler {
	m := s.metrics
	mw := &Middleware{Requests: m.httpReqs, Panics: &m.handlerPanics, Duration: m.reqDur, Log: s.Log}
	mux := http.NewServeMux()
	handle := func(route string, h http.HandlerFunc) {
		mux.HandleFunc(route, mw.Wrap(route, s.traced(h)))
	}
	handle("/healthz", s.handleHealthz)
	handle("/readyz", s.handleReadyz)
	handle("/metrics", s.handleMetrics)
	handle("/v1/workloads", s.handleWorkloads)
	handle("/v1/schemes", s.handleSchemes)
	handle("/v1/sweep", s.handleSweep)
	handle("/v1/explore", s.handleExplore)
	return mux
}

// traced is the replica's inner wrapper, run inside the shared
// Middleware: it bounds the request with the server's deadline (the
// handler sees it on r.Context(), which also cancels when the client
// disconnects) and traces it — every span that ends feeds the stage
// histograms, and ?debug=timing buffers the response so the span tree
// can ride back in X-Seda-Timing. A panic leaves the buffer unflushed,
// so the middleware's 500 starts clean.
func (s *API) traced(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if s.reqTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.reqTimeout)
			defer cancel()
		}
		ctx, tr := obs.NewTracer(ctx, "request")
		tr.OnEnd = s.observeStage
		defer tr.Finish()
		r = r.WithContext(ctx)

		if r.URL.Query().Get("debug") != "timing" {
			h(w, r)
			return
		}
		var buf ResponseBuffer
		h(&buf, r)
		tr.Finish() // end the root span before exporting it
		buf.Header().Set("X-Seda-Timing", string(tr.JSON()))
		buf.CopyTo(w)
	}
}

// handleHealthz answers the liveness probe with the build identity, so
// one curl tells an operator what is running: module version, VCS
// revision, pipeline version (the cache-fingerprint epoch), and the Go
// toolchain.
func (s *API) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Version  string `json:"version"`
		Revision string `json:"revision"`
		Pipeline string `json:"pipeline"`
		Go       string `json:"go"`
	}{
		Status:   "ok",
		Version:  s.build.ModuleVersion,
		Revision: s.build.Revision,
		Pipeline: seda.PipelineVersion,
		Go:       s.build.GoVersion,
	})
}

// handleReadyz is the readiness probe, split from /healthz liveness: a
// replica can be alive (healthz 200) yet unable to take on new work.
// It reports 503 while the server is draining after SIGTERM, and 503
// with a pressure-scaled Retry-After while every bounded compute slot
// is occupied — a routing tier that watches /readyz sees saturation
// before requests shed, instead of discovering it one 503 at a time.
// A saturated replica still serves cache hits and revalidations, so
// "not ready" steers new cold work away without taking the replica out.
func (s *API) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	type readyJSON struct {
		Status   string `json:"status"`
		Inflight int    `json:"inflight"`
		Slots    int    `json:"slots"` // 0 = unbounded
	}
	st := s.cache.Stats()
	slots := s.cache.ComputeSlots()
	doc := readyJSON{Status: "ready", Inflight: st.Inflight, Slots: slots}
	code := http.StatusOK
	switch {
	case s.draining.Load():
		doc.Status, code = "draining", http.StatusServiceUnavailable
	case slots > 0 && st.Inflight >= slots:
		doc.Status, code = "saturated", http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(st.Inflight)))
	}
	WriteJSON(w, code, doc)
}

// retryAfterSeconds turns queue pressure into backoff advice: the base
// grows with the number of in-flight evaluations (deeper queue, longer
// wait until a slot plausibly frees) and a uniform jitter of up to the
// base is added so a fleet of clients shed in the same instant —
// e.g. a router failing a whole replica's traffic over — does not
// retry in lockstep and re-saturate the capacity on the same tick.
// The jitter draws from the API's seedable source (see SeedJitter).
func (s *API) retryAfterSeconds(inflight int) int {
	base := 1 + inflight
	s.jitterMu.Lock()
	n := s.jitter.IntN(base + 1)
	s.jitterMu.Unlock()
	return base + n
}

// handleMetrics exposes the registry in the Prometheus text format.
// State owned outside the registry — the panic count and the cache
// statistics — is mirrored in from exactly one Stats snapshot per
// scrape, so every seda_cache_* series in one scrape describes the
// same instant.
func (s *API) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.cache.Stats()
	m := s.metrics
	m.panics.Set(m.handlerPanics.Value() + st.Panics)
	m.shed.Set(st.Shed)
	m.hits.Set(st.Hits)
	m.diskHits.Set(st.DiskHits)
	m.coalesced.Set(st.Coalesced)
	m.misses.Set(st.Computes)
	m.errors.Set(st.Errors)
	m.diskErrors.Set(st.DiskReadErrors + st.DiskWriteErrors)
	m.entries.Set(float64(st.Entries))
	m.inflight.Set(float64(st.Inflight))
	m.runtime.Collect()
	w.Header().Set("Content-Type", obs.PromContentType)
	m.reg.WriteProm(w) //nolint:errcheck // client gone mid-stream
}

func (s *API) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	type workloadJSON struct {
		Name   string `json:"name"`
		Full   string `json:"full"`
		Layers int    `json:"layers"`
		MACs   uint64 `json:"macs"`
	}
	all := model.All()
	out := make([]workloadJSON, len(all))
	for i, n := range all {
		out[i] = workloadJSON{Name: n.Name, Full: n.Full, Layers: len(n.Layers), MACs: n.TotalMACs()}
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *API) handleSchemes(w http.ResponseWriter, _ *http.Request) {
	type schemeJSON struct {
		Name                  string `json:"name"`
		Baseline              bool   `json:"baseline"`
		EncryptionGranularity string `json:"encryption_granularity,omitempty"`
		IntegrityGranularity  string `json:"integrity_granularity,omitempty"`
		OffChipMetadata       string `json:"off_chip_metadata,omitempty"`
		TilingAware           bool   `json:"tiling_aware"`
		EncryptionScalable    bool   `json:"encryption_scalable"`
	}
	schemes := seda.Schemes()
	out := make([]schemeJSON, len(schemes))
	for i, sc := range schemes {
		row := schemeJSON{Name: sc.Name(), Baseline: sc.Kind == memprot.Baseline}
		if !row.Baseline {
			f := sc.FeatureRow()
			row.EncryptionGranularity = f.EncryptionGranularity
			row.IntegrityGranularity = f.IntegrityGranularity
			row.OffChipMetadata = f.OffChipMetadata
			row.TilingAware = f.TilingAware
			row.EncryptionScalable = f.EncryptionScalable
		}
		out[i] = row
	}
	WriteJSON(w, http.StatusOK, out)
}

// figures maps the paper's figure names to (NPU, metric).
var figures = map[string]struct {
	npu    string
	metric string // "traffic" (Fig. 5) or "perf" (Fig. 6)
}{
	"5a": {"server", "traffic"},
	"5b": {"edge", "traffic"},
	"6a": {"server", "perf"},
	"6b": {"edge", "perf"},
}

// handleSweep answers /v1/sweep?npu=server&fig=5a[&workloads=let,ncf].
//
//   - npu selects the platform (server or edge); it may be omitted when
//     fig implies it, and must agree with fig when both are given.
//   - fig selects one figure series (5a/5b: normalized traffic,
//     6a/6b: normalized performance). Without fig the full suite
//     (both metrics, all rows) of the named NPU is returned, JSON
//     only. At least one of npu and fig is required.
//   - workloads optionally restricts the sweep to a comma-separated
//     subset (case-insensitive); results for workloads already cached
//     are reused, only the rest evaluate.
//   - The body is CSV when the request asks for it (Accept: text/csv
//     or ?format=csv), JSON otherwise.
func (s *API) handleSweep(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()

	figName := q.Get("fig")
	npu, nets, err := ResolveSweep(figName, q.Get("npu"), q.Get("workloads"))
	if err != nil {
		badRequest(w, "%v", err)
		return
	}

	csvOut, err := wantCSV(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	if csvOut && figName == "" {
		badRequest(w, "csv output needs a fig parameter (5a, 5b, 6a or 6b); the full-suite dump is JSON only")
		return
	}

	// The representation is fully determined by the config fingerprints
	// (pipeline version, NPU, schemes, topologies) plus the figure and
	// format, so a strong ETag falls out without evaluating anything. A
	// matching If-None-Match revalidates in microseconds: no compute
	// slot, no cache lookup, no pipeline.
	etag := sweepETag(npu, nets, figName, csvOut)
	if inmMatches(r.Header.Get("If-None-Match"), etag) {
		setValidators(w, etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	if err := failpoint.Inject(r.Context(), FailpointSweep); err != nil {
		s.sweepError(w, r, err)
		return
	}
	suite, err := seda.RunSuiteCachedCtx(r.Context(), s.cache, npu, nets, s.opts)
	if err != nil {
		s.sweepError(w, r, err)
		return
	}

	setValidators(w, etag)
	switch {
	case figName == "":
		w.Header().Set("Content-Type", "application/json")
		suite.WriteJSON(w) //nolint:errcheck // client gone mid-stream
	case csvOut:
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		if figures[figName].metric == "traffic" {
			suite.WriteTrafficCSV(w) //nolint:errcheck
		} else {
			suite.WritePerfCSV(w) //nolint:errcheck
		}
	default:
		writeFigJSON(w, suite, figName)
	}
}

// ResolveSweep resolves the /v1/sweep selection parameters to a
// platform and workload set: fig implies the NPU (and must agree with
// an explicit npu), and workloads optionally restricts the suite. It
// is exported because the router derives its fingerprint-affinity key
// from the same resolution — both sides must agree on what a sweep
// request denotes, or affinity would split cache-identical requests
// across replicas.
func ResolveSweep(figName, npuName, workloads string) (seda.NPUConfig, []*model.Network, error) {
	if figName == "" && npuName == "" {
		return seda.NPUConfig{}, nil, errors.New("missing npu (server or edge) or fig (5a, 5b, 6a or 6b)")
	}
	if figName != "" {
		fig, ok := figures[figName]
		if !ok {
			return seda.NPUConfig{}, nil, fmt.Errorf("unknown fig %q (want 5a, 5b, 6a or 6b)", figName)
		}
		if npuName == "" {
			npuName = fig.npu
		} else if !strings.EqualFold(npuName, fig.npu) {
			return seda.NPUConfig{}, nil, fmt.Errorf("fig %s is the %s NPU, but npu=%q was requested", figName, fig.npu, npuName)
		}
	}
	npu, err := seda.NPUByName(npuName)
	if err != nil {
		return seda.NPUConfig{}, nil, err
	}
	nets, err := model.ParseList(workloads)
	if err != nil {
		return seda.NPUConfig{}, nil, err
	}
	return npu, nets, nil
}

// sweepError maps an evaluation failure to its HTTP shape:
//
//   - rescache.ErrSaturated → 503 + pressure-scaled Retry-After: the
//     bounded compute capacity is fully occupied by other evaluations
//     (hits and coalesced identical requests never consume a slot).
//     Shed instead of queueing; whatever this sweep did manage to
//     evaluate is cached, so a retry makes progress. The Retry-After
//     value grows with the in-flight queue depth and carries jitter,
//     so a fleet of shed clients does not retry in lockstep.
//   - rescache.ErrCacheOnly → 503: this instance serves only already-
//     cached results (the router's degraded tier) and the result is
//     not in the shared cache.
//   - context.DeadlineExceeded → 504: the request deadline
//     (-request-timeout) or a compute deadline expired mid-evaluation.
//   - context.Canceled → nothing: the client disconnected (r.Context()
//     cancelled), so there is no one to answer; the evaluation has
//     already detached and freed its slot.
//   - anything else → 500.
func (s *API) sweepError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, rescache.ErrSaturated):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(s.cache.Stats().Inflight)))
		http.Error(w, "evaluation capacity saturated, retry shortly", http.StatusServiceUnavailable)
	case errors.Is(err, rescache.ErrCacheOnly):
		http.Error(w, "result not in the shared cache (cache-only instance)", http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "evaluation deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		// Client gone; no response to write.
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// setValidators stamps the conditional-request headers on a sweep
// response: the strong ETag plus no-cache, which lets any HTTP cache
// store the body but forces an If-None-Match revalidation per use —
// correct even across server rebuilds, because a pipeline change moves
// the fingerprint and with it the tag.
func setValidators(w http.ResponseWriter, etag string) {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, no-cache")
}

// writeFigJSON emits one figure's series: per-workload values aligned
// with the schemes array, plus the average row.
func writeFigJSON(w http.ResponseWriter, suite *seda.SuiteResult, figName string) {
	metric := figures[figName].metric
	value := func(r seda.RunResult) float64 { return r.NormTraffic }
	avg := suite.AvgNormTraffic
	if metric == "perf" {
		value = func(r seda.RunResult) float64 { return r.NormPerf }
		avg = suite.AvgNormPerf
	}

	schemes := seda.Schemes()
	type rowJSON struct {
		Workload string    `json:"workload"`
		Values   []float64 `json:"values"`
	}
	doc := struct {
		NPU             string    `json:"npu"`
		Fig             string    `json:"fig"`
		Metric          string    `json:"metric"`
		PipelineVersion string    `json:"pipeline_version"`
		Schemes         []string  `json:"schemes"`
		Rows            []rowJSON `json:"rows"`
		Avg             []float64 `json:"avg"`
	}{
		NPU:             suite.NPU.Name,
		Fig:             figName,
		Metric:          metric,
		PipelineVersion: seda.PipelineVersion,
		Avg:             make([]float64, len(schemes)),
	}
	for _, sc := range schemes {
		doc.Schemes = append(doc.Schemes, sc.Name())
	}
	for i, sc := range schemes {
		doc.Avg[i] = avg(sc)
	}
	for _, name := range suite.Workloads() {
		row := rowJSON{Workload: name, Values: make([]float64, len(schemes))}
		for i, sc := range schemes {
			rr, err := seda.SchemeRow(suite.Rows[name], sc)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			row.Values[i] = value(rr)
		}
		doc.Rows = append(doc.Rows, row)
	}
	WriteJSON(w, http.StatusOK, doc)
}

// sweepETag derives the strong validator for one sweep representation:
// a hash over the per-workload config fingerprints (each already a
// canonical SHA-256 of pipeline version, NPU config, scheme set and
// topology — see seda.ConfigFingerprint) plus the figure selection and
// body format. Equal tags imply byte-identical bodies; any input that
// could move a byte changes the tag.
func sweepETag(npu seda.NPUConfig, nets []*model.Network, figName string, csvOut bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "sweep|fig=%s|csv=%v\n", figName, csvOut)
	for _, n := range nets {
		fmt.Fprintln(h, seda.ConfigFingerprint(npu, n))
	}
	return `"` + hex.EncodeToString(h.Sum(nil)[:16]) + `"`
}

// SweepAffinityKey is the cluster-routing affinity key for a resolved
// sweep: a hash over the per-workload config fingerprints only —
// deliberately excluding the figure and body format, which are
// different views over the same cache entries — so every
// representation of one (NPU, workloads) configuration rendezvous-
// hashes onto the same replica and finds its rescache warm.
func SweepAffinityKey(npu seda.NPUConfig, nets []*model.Network) string {
	h := sha256.New()
	fmt.Fprintln(h, "sweep-affinity")
	for _, n := range nets {
		fmt.Fprintln(h, seda.ConfigFingerprint(npu, n))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// inmMatches reports whether an If-None-Match header matches the
// entity tag: a wildcard, or any listed tag equal to ours (weak
// validators compare equal to their strong form for GET revalidation).
func inmMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

// wantCSV implements the format negotiation: an explicit ?format=
// wins, then the Accept header; JSON is the default and wins q-value
// ties, so only a client that strictly prefers text/csv gets CSV.
func wantCSV(r *http.Request) (bool, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "csv":
		return true, nil
	case "json":
		return false, nil
	case "":
	default:
		return false, fmt.Errorf("unknown format %q (want json or csv)", f)
	}
	accept := r.Header.Get("Accept")
	return acceptQuality(accept, "text/csv") > acceptQuality(accept, "application/json"), nil
}

// acceptQuality returns the q-value an Accept header assigns to a
// media type; the most specific matching range wins (exact beats
// type/* beats */*). An empty header accepts everything at q=1; no
// matching range means q=0.
func acceptQuality(header, mediaType string) float64 {
	if strings.TrimSpace(header) == "" {
		return 1
	}
	mainType := strings.SplitN(mediaType, "/", 2)[0]
	bestSpec, bestQ := -1, 0.0
	for _, part := range strings.Split(header, ",") {
		fields := strings.Split(part, ";")
		var spec int
		switch strings.ToLower(strings.TrimSpace(fields[0])) {
		case mediaType:
			spec = 2
		case mainType + "/*":
			spec = 1
		case "*/*":
			spec = 0
		default:
			continue
		}
		q := 1.0
		for _, param := range fields[1:] {
			if v, ok := strings.CutPrefix(strings.TrimSpace(param), "q="); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					q = f
				}
			}
		}
		if spec > bestSpec {
			bestSpec, bestQ = spec, q
		}
	}
	if bestSpec < 0 {
		return 0
	}
	return bestQ
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), http.StatusBadRequest)
}
