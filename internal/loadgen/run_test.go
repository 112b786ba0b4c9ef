package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/rescache"
	"repro/internal/serve"
	"repro/seda"
)

// testServer boots a real serving stack (serve.API over a fresh
// in-memory cache) — the harness's integration tests go through the
// same HTTP surface production traffic does.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	cache, err := rescache.New(rescache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	api := serve.NewAPI(cache, seda.DefaultSuiteOptions(), 0)
	api.SeedJitter(1)
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// warmColdScenario: a cold counted phase computes the configs, a warm
// counted phase replays them with revalidation.
func warmColdScenario(t *testing.T) *Scenario {
	t.Helper()
	doc := `{
	  "name": "warm-rerun",
	  "phases": [
	    {"name": "cold", "clients": 2, "requests": 6,
	     "mix": [{"kind": "sweep", "figs": ["5b"], "workloads": ["let,ncf"]}]},
	    {"name": "warm", "clients": 4, "requests": 40,
	     "mix": [{"kind": "sweep", "figs": ["5b"], "workloads": ["let,ncf"], "csv": 0.25, "revalidate": 0.6}]}
	  ]
	}`
	sc, err := ParseScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRunWarmRerunInvariants is the harness-as-integration-test core:
// after a cold phase computes a config, the warm phase must be served
// entirely from cache (fresh computes = 0), revalidation must answer
// 304 under load, no request may error, and every 200 body for a URL
// must be byte-identical.
func TestRunWarmRerunInvariants(t *testing.T) {
	srv := testServer(t)
	rep, err := Run(context.Background(), RunOptions{
		Scenario: warmColdScenario(t),
		Seed:     11,
		Target:   srv.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Totals.Status.Errors(); got != 0 {
		t.Fatalf("client-visible errors: %d (%+v)", got, rep.Totals.Status)
	}
	if rep.Totals.Status.Total() != 46 {
		t.Fatalf("completed %d requests, want 46", rep.Totals.Status.Total())
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("phases: %d", len(rep.Phases))
	}
	cold, warm := rep.Phases[0], rep.Phases[1]
	if cold.MetricsDelta["seda_cache_misses_total"] == 0 {
		t.Fatalf("cold phase computed nothing: %+v", cold.MetricsDelta)
	}
	if d := warm.MetricsDelta["seda_cache_misses_total"]; d != 0 {
		t.Fatalf("warm rerun ran %v fresh computes, want 0 (deltas %+v)", d, warm.MetricsDelta)
	}
	if warm.MetricsDelta["seda_cache_hits_total"] == 0 {
		t.Fatalf("warm phase shows no cache hits: %+v", warm.MetricsDelta)
	}
	if warm.Status.NotModified == 0 {
		t.Fatalf("revalidation never answered 304: %+v", warm.Status)
	}
	if warm.BodyDivergence != 0 || cold.BodyDivergence != 0 {
		t.Fatalf("body divergence: cold=%d warm=%d", cold.BodyDivergence, warm.BodyDivergence)
	}
	if warm.AchievedRPS <= 0 || warm.Latency.P99 <= 0 || warm.Latency.Count == 0 {
		t.Fatalf("warm measurements empty: %+v", warm.Latency)
	}
	if rep.ScheduleDigest == "" || rep.ScheduleDigest != warmColdScenario(t).ScheduleDigest(11) {
		t.Fatalf("report digest %q does not name the replayed schedule", rep.ScheduleDigest)
	}
}

// TestRunTaxonomy drives the classifier through a scripted server that
// rotates every status the taxonomy distinguishes.
func TestRunTaxonomy(t *testing.T) {
	var mu sync.Mutex
	n := 0
	script := []func(w http.ResponseWriter){
		func(w http.ResponseWriter) { w.Write([]byte("ok")) }, //nolint:errcheck
		func(w http.ResponseWriter) {
			w.Header().Set("X-Seda-Stale", "1")
			w.Write([]byte("stale-tier")) //nolint:errcheck
		},
		func(w http.ResponseWriter) { w.WriteHeader(http.StatusNotModified) },
		func(w http.ResponseWriter) { w.WriteHeader(http.StatusTooManyRequests) },
		func(w http.ResponseWriter) { w.WriteHeader(http.StatusServiceUnavailable) },
		func(w http.ResponseWriter) { w.WriteHeader(http.StatusGatewayTimeout) },
		func(w http.ResponseWriter) { w.WriteHeader(http.StatusBadRequest) },
		func(w http.ResponseWriter) { w.WriteHeader(http.StatusInternalServerError) },
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			fmt.Fprint(w, "# HELP x x\n# TYPE x counter\nx 1\n")
			return
		}
		mu.Lock()
		f := script[n%len(script)]
		n++
		mu.Unlock()
		f(w)
	}))
	defer srv.Close()

	doc := `{"name":"taxonomy","phases":[{"name":"p","clients":1,"requests":16,"mix":[{"kind":"catalog"}]}]}`
	sc, err := ParseScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), RunOptions{Scenario: sc, Seed: 1, Target: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Totals.Status
	want := Counts{OK: 2, Stale: 2, NotModified: 2, Rejected: 2, Shed: 2, Timeout: 2, ClientError: 2, ServerError: 2}
	if st != want {
		t.Fatalf("taxonomy counts:\n got %+v\nwant %+v", st, want)
	}
	if rep.Totals.ShedRate != rate(4, 16) {
		t.Fatalf("shed rate %v", rep.Totals.ShedRate)
	}
	if rep.Totals.StaleRate != rate(2, 16) {
		t.Fatalf("stale rate %v", rep.Totals.StaleRate)
	}
}

// TestRunBodyDivergence: a server that changes its 200 body for the
// same URL must be caught by the first-seen digest check.
func TestRunBodyDivergence(t *testing.T) {
	var mu sync.Mutex
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			fmt.Fprint(w, "")
			return
		}
		mu.Lock()
		n++
		fmt.Fprintf(w, "body-%d", n)
		mu.Unlock()
	}))
	defer srv.Close()
	doc := `{"name":"diverge","phases":[{"name":"p","clients":1,"requests":6,"mix":[{"kind":"sweep","figs":["5b"],"workloads":["let"]}]}]}`
	sc, err := ParseScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), RunOptions{Scenario: sc, Seed: 1, Target: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	// One URL, six 200s with six different bodies: the first sets the
	// reference, the other five diverge.
	if rep.Phases[0].BodyDivergence != 5 {
		t.Fatalf("divergence = %d, want 5", rep.Phases[0].BodyDivergence)
	}
	if len(rep.Warnings) == 0 || !strings.Contains(rep.Warnings[len(rep.Warnings)-1], "diverged") {
		t.Fatalf("warnings missing divergence note: %v", rep.Warnings)
	}
	if rep.Totals.Status.OK != 6 {
		t.Fatalf("divergence must not reclassify 200s: %+v", rep.Totals.Status)
	}
}

// TestRunScrapeWarnings: an unscrapable endpoint degrades to a warning
// (the traffic numbers survive; only the attribution is lost).
func TestRunScrapeWarnings(t *testing.T) {
	srv := testServer(t)
	doc := `{"name":"w","phases":[{"name":"p","clients":1,"requests":2,"mix":[{"kind":"catalog"}]}]}`
	sc, err := ParseScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), RunOptions{
		Scenario: sc, Seed: 1, Target: srv.URL,
		Scrape: []string{srv.URL, "http://127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) == 0 || !strings.Contains(rep.Warnings[0], "pre-scrape") {
		t.Fatalf("warnings: %v", rep.Warnings)
	}
	if rep.Phases[0].MetricsDelta != nil {
		t.Fatal("partial scrape must not report deltas")
	}
	if rep.Totals.Status.OK != 2 {
		t.Fatalf("traffic should still run: %+v", rep.Totals.Status)
	}
}
