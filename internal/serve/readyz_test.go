package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"testing"

	"repro/internal/rescache"
)

// TestReadyzSplitFromHealthz pins the liveness/readiness split: a
// draining or saturated replica keeps answering /healthz 200 (it is
// alive) while /readyz goes 503 with the reason, so a routing tier can
// stop sending new work without declaring the process dead.
func TestReadyzSplitFromHealthz(t *testing.T) {
	cache, err := rescache.New(rescache.Options{MaxInflightComputes: 1})
	if err != nil {
		t.Fatal(err)
	}
	api := NewAPI(cache, 0)
	h := api.Handler()

	readyz := func() (int, string, string) {
		rec := doReq(t, h, "/readyz", nil)
		var doc struct {
			Status   string `json:"status"`
			Inflight int    `json:"inflight"`
			Slots    int    `json:"slots"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("readyz body: %v\n%s", err, rec.Body.String())
		}
		return rec.Code, doc.Status, rec.Header().Get("Retry-After")
	}

	if code, status, _ := readyz(); code != http.StatusOK || status != "ready" {
		t.Fatalf("idle readyz: %d %q, want 200 ready", code, status)
	}

	// Occupy the single compute slot: alive but saturated.
	held := make(chan struct{})
	begun := make(chan struct{})
	occupier := make(chan error, 1)
	go func() {
		_, _, err := cache.GetOrComputeCtx(context.Background(), "00ff", func(context.Context) ([]byte, error) {
			close(begun)
			<-held
			return []byte("x"), nil
		})
		occupier <- err
	}()
	<-begun

	code, status, retry := readyz()
	if code != http.StatusServiceUnavailable || status != "saturated" {
		t.Fatalf("saturated readyz: %d %q, want 503 saturated", code, status)
	}
	if retry == "" {
		t.Fatal("saturated readyz without Retry-After")
	}
	if sec, err := strconv.Atoi(retry); err != nil || sec < 2 || sec > 4 {
		// One inflight evaluation: base 1+1=2, jitter in [0, base].
		t.Fatalf("Retry-After %q, want integer in [2, 4]", retry)
	}
	if rec := doReq(t, h, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz of a saturated replica: %d, want 200 (still alive)", rec.Code)
	}

	close(held)
	if err := <-occupier; err != nil {
		t.Fatal(err)
	}
	waitStatsInflightZero(t, cache)
	if code, status, _ := readyz(); code != http.StatusOK || status != "ready" {
		t.Fatalf("readyz after slot freed: %d %q, want 200 ready", code, status)
	}

	// Draining wins over everything: the lifecycle's OnDrain flips it.
	api.SetDraining(true)
	if code, status, _ := readyz(); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("draining readyz: %d %q, want 503 draining", code, status)
	}
	if rec := doReq(t, h, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz of a draining replica: %d, want 200", rec.Code)
	}
	api.SetDraining(false)
	if code, status, _ := readyz(); code != http.StatusOK || status != "ready" {
		t.Fatalf("readyz after drain cleared: %d %q", code, status)
	}
}

// TestRetryAfterScalesWithPressure pins the anti-lockstep contract of
// satellite Retry-After: the advice grows with queue depth and carries
// jitter, so a fleet's shed clients spread their retries instead of
// re-saturating the capacity on one tick.
func TestRetryAfterScalesWithPressure(t *testing.T) {
	cache, err := rescache.New(rescache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	api := NewAPI(cache, 0)
	for _, tc := range []struct {
		inflight, lo, hi int
	}{
		{0, 1, 2},  // base 1, jitter [0,1]
		{1, 2, 4},  // base 2, jitter [0,2]
		{4, 5, 10}, // base 5, jitter [0,5]
		{15, 16, 32},
	} {
		seen := make(map[int]bool)
		for range 200 {
			got := api.retryAfterSeconds(tc.inflight)
			if got < tc.lo || got > tc.hi {
				t.Fatalf("inflight=%d: Retry-After %d outside [%d, %d]", tc.inflight, got, tc.lo, tc.hi)
			}
			seen[got] = true
		}
		if tc.hi > tc.lo && len(seen) < 2 {
			t.Fatalf("inflight=%d: no jitter observed over 200 draws (all %v)", tc.inflight, seen)
		}
	}
}

// TestRetryAfterSeedReproducible pins the seedable-jitter contract the
// load-generator harness relies on: two APIs seeded identically emit
// the same Retry-After sequence, differently seeded ones diverge — the
// readiness surface replays exactly under a pinned -jitter-seed.
func TestRetryAfterSeedReproducible(t *testing.T) {
	newSeeded := func(seed uint64) *API {
		cache, err := rescache.New(rescache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		api := NewAPI(cache, 0)
		api.SeedJitter(seed)
		return api
	}
	draw := func(api *API) []int {
		out := make([]int, 64)
		for i := range out {
			out[i] = api.retryAfterSeconds(i % 7)
		}
		return out
	}
	a, b, c := draw(newSeeded(42)), draw(newSeeded(42)), draw(newSeeded(43))
	if !slices.Equal(a, b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	if slices.Equal(a, c) {
		t.Fatalf("different seeds produced identical sequences: %v", a)
	}
	// Reseeding mid-flight restarts the sequence, so a test can rewind
	// the advice stream without rebuilding the API.
	api := newSeeded(42)
	first := draw(api)
	api.SeedJitter(42)
	if again := draw(api); !slices.Equal(first, again) {
		t.Fatalf("reseed did not rewind the sequence:\n%v\n%v", first, again)
	}
}
