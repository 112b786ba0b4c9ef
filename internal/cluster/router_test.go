package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/serve"
)

// fakeReplica is a scriptable stand-in for seda-serve: per-mode
// behavior on the API routes, a real /readyz, and a hit counter.
type fakeReplica struct {
	srv  *httptest.Server
	hits atomic.Int64

	mu     sync.Mutex
	mode   string // "ok" | "busy" | "abort" | "slow" | "bad-request"
	delay  time.Duration
	readyz int
}

func newFakeReplica(t *testing.T) *fakeReplica {
	t.Helper()
	f := &fakeReplica{mode: "ok", readyz: http.StatusOK}
	f.srv = httptest.NewServer(http.HandlerFunc(f.serve))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

func (f *fakeReplica) set(mode string, delay time.Duration) {
	f.mu.Lock()
	f.mode, f.delay = mode, delay
	f.mu.Unlock()
}

func (f *fakeReplica) serve(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	mode, delay, readyz := f.mode, f.delay, f.readyz
	f.mu.Unlock()
	if r.URL.Path == "/readyz" {
		if mode == "abort" {
			panic(http.ErrAbortHandler)
		}
		w.WriteHeader(readyz)
		return
	}
	f.hits.Add(1)
	switch mode {
	case "busy":
		w.Header().Set("Retry-After", "1")
		http.Error(w, "evaluation capacity saturated", http.StatusServiceUnavailable)
	case "abort":
		panic(http.ErrAbortHandler) // connection dies: transport error at the router
	case "bad-request":
		http.Error(w, "unknown fig", http.StatusBadRequest)
	case "slow":
		time.Sleep(delay)
		fallthrough
	default:
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"replica":%q,"path":%q}`, f.addr(), r.URL.RequestURI())
	}
}

func fakeFleet(t *testing.T, n int, opts Options) (*Router, []*fakeReplica) {
	t.Helper()
	fakes := make([]*fakeReplica, n)
	for i := range fakes {
		fakes[i] = newFakeReplica(t)
		opts.Replicas = append(opts.Replicas, fakes[i].addr())
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt, fakes
}

func get(t *testing.T, h http.Handler, url string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func fakeByAddr(fakes []*fakeReplica, addr string) *fakeReplica {
	for _, f := range fakes {
		if f.addr() == addr {
			return f
		}
	}
	return nil
}

func scrape(t *testing.T, h http.Handler) map[string]*obs.PromFamily {
	t.Helper()
	rec := get(t, h, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	fams, err := obs.ParseProm(rec.Body)
	if err != nil {
		t.Fatalf("metrics parse: %v", err)
	}
	return fams
}

func counterValue(t *testing.T, fams map[string]*obs.PromFamily, name string) float64 {
	t.Helper()
	fam := fams[name]
	if fam == nil {
		t.Fatalf("metric family %s missing", name)
	}
	var sum float64
	for _, s := range fam.Samples {
		sum += s.Value
	}
	return sum
}

const sweepURL = "/v1/sweep?fig=5b&workloads=let"

// TestAffinityRouting: identical configurations always land on the
// same replica, and representation-only differences (fig of the same
// NPU, CSV vs JSON, axis order, repeated or case-varied workloads) do
// not move them — the affinity key binds the cache fingerprints, not
// the view or the spelling.
func TestAffinityRouting(t *testing.T) {
	rt, _ := fakeFleet(t, 3, Options{})
	h := rt.Handler()

	sweepNPU, sweepNets, err := serve.ResolveSweep("5b", "", "let")
	if err != nil {
		t.Fatal(err)
	}
	req, err := explore.ParseRequest("rows=16:32,channels=2|4", "", "let,ncf", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, group := range []struct {
		key  string // the home is this key's rendezvous winner
		urls []string
	}{{serve.SweepAffinityKey(sweepNPU, sweepNets), []string{
		sweepURL,
		"/v1/sweep?fig=6b&workloads=let", // other metric, same configs
		"/v1/sweep?fig=5b&workloads=let&format=csv", // other format
		"/v1/sweep?npu=edge&fig=5b&workloads=let",   // explicit npu, same resolution
	}}, {serve.ExploreAffinityKey(req), []string{
		"/v1/explore?spec=rows%3D16:32,channels%3D2%7C4&workloads=let,ncf",
		"/v1/explore?spec=channels%3D2%7C4,rows%3D16:32&workloads=let,ncf",            // axis order
		"/v1/explore?spec=rows%3D16:32,channels%3D2%7C4&workloads=let,LET,ncf,let",    // repeated, case-varied
		"/v1/explore?spec=rows%3D16:32,channels%3D2%7C4&workloads=let,ncf&format=csv", // other format
		"/v1/explore?spec=rows%3D16:32,channels%3D2%7C4&workloads=let,ncf&base=Edge&scheme=seda",
	}}} {
		home := rt.rank(group.key)[0].Name
		for _, url := range group.urls {
			for range 3 {
				rec := get(t, h, url, nil)
				if rec.Code != http.StatusOK || rec.Header().Get("X-Seda-Replica") != home {
					t.Fatalf("%s: %d via %q, want 200 via %q",
						url, rec.Code, rec.Header().Get("X-Seda-Replica"), home)
				}
			}
		}
	}
}

// TestFailoverOn503: a saturated affinity home shunts the request to
// the failover tail with zero client-visible errors; 503 is flow
// control, so the home's breaker stays closed.
func TestFailoverOn503(t *testing.T) {
	rt, fakes := fakeFleet(t, 3, Options{BackoffBase: time.Millisecond})
	h := rt.Handler()

	home := get(t, h, sweepURL, nil).Header().Get("X-Seda-Replica")
	fakeByAddr(fakes, home).set("busy", 0)

	rec := get(t, h, sweepURL, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("failover: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Seda-Replica"); got == home || got == "" {
		t.Fatalf("served by %q, want a failover replica", got)
	}
	fams := scrape(t, h)
	if v := counterValue(t, fams, "seda_router_failover_total"); v < 1 {
		t.Fatalf("failover_total = %v, want >= 1", v)
	}
	for _, rep := range rt.Replicas() {
		if rep.Name == home && rep.BreakerState() != BreakerClosed {
			t.Fatalf("503 fed the breaker: %v", rep.BreakerState())
		}
	}
}

// TestRetryBudgetExhausted: with the whole fleet saturated and no
// stale tier, the client gets one 503 with backoff advice after
// exactly RetryBudget upstream attempts — never more.
func TestRetryBudgetExhausted(t *testing.T) {
	rt, fakes := fakeFleet(t, 2, Options{RetryBudget: 3, BackoffBase: time.Millisecond})
	for _, f := range fakes {
		f.set("busy", 0)
	}
	h := rt.Handler()
	rec := get(t, h, sweepURL, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("exhausted budget: %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if total := fakes[0].hits.Load() + fakes[1].hits.Load(); total != 3 {
		t.Fatalf("fleet saw %d attempts, want exactly the budget of 3", total)
	}
	fams := scrape(t, h)
	if v := counterValue(t, fams, "seda_router_unserved_total"); v != 1 {
		t.Fatalf("unserved_total = %v, want 1", v)
	}
	if v := counterValue(t, fams, "seda_router_attempts_total"); v != 3 {
		t.Fatalf("attempts_total = %v, want 3", v)
	}
}

// TestBreakerOpensAndExcludes: hard transport failures open the home's
// breaker after the threshold; once open, the replica stops seeing
// traffic while clients keep getting 200s from the rest of the fleet.
func TestBreakerOpensAndExcludes(t *testing.T) {
	rt, fakes := fakeFleet(t, 3, Options{
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour, // keep it open for the test
		BackoffBase:      time.Millisecond,
	})
	h := rt.Handler()

	home := get(t, h, sweepURL, nil).Header().Get("X-Seda-Replica")
	dead := fakeByAddr(fakes, home)
	dead.set("abort", 0)

	for i := range 3 {
		if rec := get(t, h, sweepURL, nil); rec.Code != http.StatusOK {
			t.Fatalf("request %d during replica death: %d", i, rec.Code)
		}
	}
	var homeRep *Replica
	for _, rep := range rt.Replicas() {
		if rep.Name == home {
			homeRep = rep
		}
	}
	if got := homeRep.BreakerState(); got != BreakerOpen {
		t.Fatalf("breaker after %d hard failures: %v", 3, got)
	}

	// Open breaker: the dead replica is skipped entirely now.
	before := dead.hits.Load()
	for range 4 {
		if rec := get(t, h, sweepURL, nil); rec.Code != http.StatusOK {
			t.Fatalf("request with open breaker: %d", rec.Code)
		}
	}
	if dead.hits.Load() != before {
		t.Fatal("open-breaker replica still receiving attempts")
	}
	fams := scrape(t, h)
	if v := counterValue(t, fams, "seda_router_breaker_transitions_total"); v != 1 {
		t.Fatalf("breaker_transitions_total = %v, want 1", v)
	}
}

// TestCancelDuringBackoffStopsRetries: a client that goes away while
// the router waits out the backoff after a failed attempt gets no
// further upstream attempt, and the request returns at once instead of
// sleeping the rest of the (hour-long) backoff.
func TestCancelDuringBackoffStopsRetries(t *testing.T) {
	defer failpoint.Reset()
	rt, _ := fakeFleet(t, 2, Options{
		RetryBudget: 3,
		BackoffBase: time.Hour,
		BackoffMax:  time.Hour,
	})
	h := rt.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	failpoint.EnableFunc(FailpointDial, func(context.Context) error {
		time.AfterFunc(20*time.Millisecond, cancel)
		return errors.New("dial refused")
	})
	req := httptest.NewRequest(http.MethodGet, sweepURL, nil).WithContext(ctx)
	start := time.Now()
	h.ServeHTTP(httptest.NewRecorder(), req)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled request returned after %v, want promptly", d)
	}

	fams := scrape(t, h)
	if v := counterValue(t, fams, "seda_router_attempts_total"); v != 1 {
		t.Fatalf("attempts_total = %v, want 1 (no attempt after the cancel)", v)
	}
	if v := counterValue(t, fams, "seda_router_retries_total"); v != 0 {
		t.Fatalf("retries_total = %v, want 0", v)
	}
	if v := counterValue(t, fams, "seda_router_unserved_total"); v != 0 {
		t.Fatalf("unserved_total = %v, want 0 (a gone client is not answered)", v)
	}
}

// TestMidBodyDisconnectRetries: a replica dying after the status line
// (the cluster.body failpoint) is retried within the budget; the
// client never sees the truncation.
func TestMidBodyDisconnectRetries(t *testing.T) {
	defer failpoint.Reset()
	rt, _ := fakeFleet(t, 2, Options{BackoffBase: time.Millisecond})
	h := rt.Handler()

	var calls atomic.Int64
	failpoint.EnableFunc(FailpointBody, func(context.Context) error {
		if calls.Add(1) == 1 {
			return errors.New("replica died mid-body")
		}
		return nil
	})
	rec := get(t, h, sweepURL, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("mid-body disconnect leaked to the client: %d %s", rec.Code, rec.Body.String())
	}
	fams := scrape(t, h)
	if v := counterValue(t, fams, "seda_router_retries_total"); v != 1 {
		t.Fatalf("retries_total = %v, want 1", v)
	}
	if v := counterValue(t, fams, "seda_router_attempts_total"); v != 2 {
		t.Fatalf("attempts_total = %v, want 2 (failed + retried)", v)
	}
}

// TestBadRequestPassesThrough: a 4xx is an authoritative answer — no
// retry, no failover, relayed verbatim.
func TestBadRequestPassesThrough(t *testing.T) {
	rt, fakes := fakeFleet(t, 2, Options{})
	for _, f := range fakes {
		f.set("bad-request", 0)
	}
	h := rt.Handler()
	rec := get(t, h, "/v1/sweep?fig=9z", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad request: %d", rec.Code)
	}
	if total := fakes[0].hits.Load() + fakes[1].hits.Load(); total != 1 {
		t.Fatalf("4xx consumed %d attempts, want 1", total)
	}
}

// TestRouterSurfaces: healthz lists the fleet, readyz degrades as
// replicas die, method discipline holds, and the metrics exposition is
// well-formed under the strict parser + linter.
func TestRouterSurfaces(t *testing.T) {
	rt, fakes := fakeFleet(t, 2, Options{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		RetryBudget:      2,
		BackoffBase:      time.Millisecond,
	})
	h := rt.Handler()

	rec := get(t, h, "/healthz", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), fakes[0].addr()) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("readyz with a healthy fleet: %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodPost, sweepURL, strings.NewReader("{}"))
	pr := httptest.NewRecorder()
	h.ServeHTTP(pr, req)
	if pr.Code != http.StatusMethodNotAllowed || pr.Header().Get("Allow") != "GET, HEAD" {
		t.Fatalf("POST: %d Allow=%q", pr.Code, pr.Header().Get("Allow"))
	}

	// Kill the fleet; breakers open on the failed attempts.
	for _, f := range fakes {
		f.set("abort", 0)
	}
	if rec := get(t, h, sweepURL, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("dead fleet sweep: %d", rec.Code)
	}
	if rec := get(t, h, "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with every breaker open: %d", rec.Code)
	}

	fams := scrape(t, h)
	for _, name := range []string{
		"seda_router_requests_total", "seda_router_request_duration_seconds",
		"seda_router_replica_up", "seda_router_replica_ready",
		"seda_router_replica_inflight", "seda_router_breaker_state",
		"seda_router_failover_total", "seda_router_retries_total",
		"seda_router_stale_served_total",
		"seda_build_info",
	} {
		if fams[name] == nil {
			t.Fatalf("metric family %s missing from exposition", name)
		}
	}
	// Per-replica series carry the replica label for both replicas.
	up := fams["seda_router_breaker_state"]
	if len(up.Samples) != 2 {
		t.Fatalf("breaker_state has %d samples, want 2", len(up.Samples))
	}
	for _, s := range up.Samples {
		if s.Value != float64(BreakerOpen) {
			t.Fatalf("breaker_state sample %v, want open (1)", s)
		}
	}
}

// TestHealthProbeLifecycle: probes demote a saturated replica, mark a
// dead one breaker-open without burning client requests, and readmit a
// recovered one through the half-open trial.
func TestHealthProbeLifecycle(t *testing.T) {
	rt, fakes := fakeFleet(t, 2, Options{
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	ctx := t.Context()

	rt.ProbeNow(ctx)
	for _, rep := range rt.Replicas() {
		if !rep.Ready() || !rep.Alive() {
			t.Fatalf("replica %s not ready after healthy probe", rep.Name)
		}
	}

	// Saturated: alive, demoted, breaker untouched.
	fakes[0].mu.Lock()
	fakes[0].readyz = http.StatusServiceUnavailable
	fakes[0].mu.Unlock()
	rt.ProbeNow(ctx)
	rep0 := rt.Replicas()[0]
	if !rep0.Alive() || rep0.Ready() || rep0.BreakerState() != BreakerClosed {
		t.Fatalf("saturated replica: alive=%v ready=%v breaker=%v",
			rep0.Alive(), rep0.Ready(), rep0.BreakerState())
	}

	// Dead: probes alone open the breaker.
	fakes[0].set("abort", 0)
	rt.ProbeNow(ctx)
	rt.ProbeNow(ctx)
	if !errorsIsOpen(rep0) {
		t.Fatalf("dead replica after 2 probes: breaker=%v", rep0.BreakerState())
	}

	// Recovered: cooldown elapses, the next probe is the half-open
	// trial and closes the breaker — no client request sacrificed.
	fakes[0].set("ok", 0)
	fakes[0].mu.Lock()
	fakes[0].readyz = http.StatusOK
	fakes[0].mu.Unlock()
	time.Sleep(60 * time.Millisecond)
	rt.ProbeNow(ctx)
	if rep0.BreakerState() != BreakerClosed || !rep0.Ready() {
		t.Fatalf("recovered replica: breaker=%v ready=%v", rep0.BreakerState(), rep0.Ready())
	}
}

func errorsIsOpen(rep *Replica) bool { return rep.BreakerState() == BreakerOpen }
