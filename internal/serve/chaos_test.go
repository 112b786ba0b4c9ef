package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/rescache"
)

// Serving-stack chaos tests: each armed failpoint must produce a
// well-formed error status, leak no compute slot, and leave the server
// alive for the next request. Runs under `go test -race -short`.

func waitStatsInflightZero(t *testing.T, cache *rescache.Cache) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for cache.Stats().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("compute slot leaked: %+v", cache.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosHandlerPanicRecovered: a panic inside the sweep handler
// answers 500, increments seda_panics_total, and the server keeps
// serving.
func TestChaosHandlerPanicRecovered(t *testing.T) {
	defer failpoint.Reset()
	h, cache := testHandler(t)
	if err := failpoint.Enable(FailpointSweep, "panic(chaos)"); err != nil {
		t.Fatal(err)
	}
	rec := doReq(t, h, "/v1/sweep?fig=5b&workloads=ncf", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicked request: status %d, want 500", rec.Code)
	}
	waitStatsInflightZero(t, cache)

	// The server survives: the fault disarmed, the same request works,
	// and the panic shows on /metrics.
	failpoint.Reset()
	if rec := doReq(t, h, "/v1/sweep?fig=5b&workloads=ncf", nil); rec.Code != http.StatusOK {
		t.Fatalf("post-panic request: status %d", rec.Code)
	}
	if got := metricValue(t, scrapeMetrics(t, h), "seda_panics_total"); got != 1 {
		t.Fatalf("seda_panics_total = %v, want 1 (the recovered panic)", got)
	}
}

// TestChaosComputePanicAnswers500: a panic inside the cache compute
// (not the handler goroutine) is recovered by rescache, surfaces as a
// 500, and is counted in seda_panics_total.
func TestChaosComputePanicAnswers500(t *testing.T) {
	defer failpoint.Reset()
	h, cache := testHandler(t)
	if err := failpoint.Enable(rescache.FailpointCompute, "panic(chaos)"); err != nil {
		t.Fatal(err)
	}
	rec := doReq(t, h, "/v1/sweep?fig=5b&workloads=ncf", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	waitStatsInflightZero(t, cache)
	failpoint.Reset()
	if rec := doReq(t, h, "/v1/sweep?fig=5b&workloads=ncf", nil); rec.Code != http.StatusOK {
		t.Fatalf("server did not recover: status %d", rec.Code)
	}
	if got := metricValue(t, scrapeMetrics(t, h), "seda_panics_total"); got != 1 {
		t.Fatalf("seda_panics_total = %v, want 1 (the compute panic)", got)
	}
}

// TestChaosInjectedErrorAnswers500: a plain injected fault maps to a
// 500 with the error text, not a hang or a crash.
func TestChaosInjectedErrorAnswers500(t *testing.T) {
	defer failpoint.Reset()
	h, cache := testHandler(t)
	if err := failpoint.Enable(rescache.FailpointCompute, "error(injected disk gremlin)"); err != nil {
		t.Fatal(err)
	}
	rec := doReq(t, h, "/v1/sweep?fig=5b&workloads=ncf", nil)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "gremlin") {
		t.Fatalf("status %d body %q", rec.Code, rec.Body.String())
	}
	waitStatsInflightZero(t, cache)
}

// TestChaosRequestTimeout504: a slow compute against a short
// -request-timeout answers 504, and the abandoned evaluation frees its
// slot (the sleep failpoint honors the compute context, which cancels
// once the last waiter departs).
func TestChaosRequestTimeout504(t *testing.T) {
	defer failpoint.Reset()
	cache, err := rescache.New(rescache.Options{MaxInflightComputes: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := NewAPI(cache, 30*time.Millisecond).Handler()
	if err := failpoint.Enable(rescache.FailpointCompute, "sleep(30s)"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rec := doReq(t, h, "/v1/sweep?fig=5b&workloads=ncf", nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rec.Code)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("504 did not arrive promptly")
	}
	waitStatsInflightZero(t, cache)

	// The slot is free again: disarm and the same sweep computes. The
	// recovery request goes through an untimed handler on the same cache
	// so a legitimate slow evaluation doesn't trip the 30ms limit.
	failpoint.Reset()
	h2 := NewAPI(cache, 0).Handler()
	if rec := doReq(t, h2, "/v1/sweep?fig=5b&workloads=ncf", nil); rec.Code != http.StatusOK {
		t.Fatalf("slot not recovered: status %d", rec.Code)
	}
}

// TestChaosClientDisconnectFreesSlot: a client that vanishes
// mid-evaluation (cancelled request context over a real TCP server)
// detaches the request; once no waiter remains the compute cancels and
// the slot frees.
func TestChaosClientDisconnectFreesSlot(t *testing.T) {
	defer failpoint.Reset()
	cache, err := rescache.New(rescache.Options{MaxInflightComputes: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(cache, 0).Handler())
	defer srv.Close()
	if err := failpoint.Enable(rescache.FailpointCompute, "sleep(30s)"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/sweep?fig=5b&workloads=ncf", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Let the evaluation take the slot, then kill the client.
	deadline := time.Now().Add(5 * time.Second)
	for cache.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("evaluation never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want Canceled", err)
	}
	waitStatsInflightZero(t, cache)

	failpoint.Reset()
	resp, err := http.Get(srv.URL + "/v1/sweep?fig=5b&workloads=ncf")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slot not recovered after disconnect: status %d", resp.StatusCode)
	}
}

// TestChaosDiskFaultsStillServe: with the disk layer failing on both
// reads and writes, the server still answers 200 from recomputation,
// and the failures are visible on /metrics.
func TestChaosDiskFaultsStillServe(t *testing.T) {
	defer failpoint.Reset()
	cache, err := rescache.New(rescache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	h := NewAPI(cache, 0).Handler()
	if err := failpoint.Enable(rescache.FailpointDiskGet, "error"); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable(rescache.FailpointDiskPut, "error"); err != nil {
		t.Fatal(err)
	}
	if rec := doReq(t, h, "/v1/sweep?fig=5b&workloads=ncf", nil); rec.Code != http.StatusOK {
		t.Fatalf("sweep with dead disk: status %d", rec.Code)
	}
	if got := metricValue(t, scrapeMetrics(t, h), "seda_cache_disk_errors_total"); got == 0 {
		t.Fatal("disk faults not counted in seda_cache_disk_errors_total")
	}
}
