package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/rescache"
	"repro/internal/serve"
)

// Cluster chaos tests: real serve.API replicas behind the router, real
// faults (a replica dying mid-load, a hung replica, a flapping health
// surface), and the transparency contract checked end to end — zero
// client-visible errors, bodies byte-identical to a single-replica
// reference, failure counters visible, inflight drained. Requests
// restrict workloads to the millisecond-scale ones (let, ncf) so the
// suites stay fast under -race.

// realReplica runs a full serve.API over the shared disk dir and can
// be killed (connections abort, mid-body included) or hung (requests
// block until released) to model SIGKILL and a wedged process.
type realReplica struct {
	srv     *httptest.Server
	dead    atomic.Bool
	hang    atomic.Bool
	release chan struct{}
}

func newRealReplica(t *testing.T, dir string) *realReplica {
	t.Helper()
	cache, err := rescache.New(rescache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	inner := serve.NewAPI(cache, 0).Handler()
	rep := &realReplica{release: make(chan struct{})}
	rep.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rep.dead.Load() {
			panic(http.ErrAbortHandler)
		}
		if rep.hang.Load() {
			select {
			case <-rep.release:
			case <-r.Context().Done():
			}
			panic(http.ErrAbortHandler)
		}
		// The dead flag is also honored mid-response: a write after
		// death aborts the connection with a torn body, exactly what a
		// SIGKILL between two TCP segments looks like to the router.
		inner.ServeHTTP(&killableWriter{ResponseWriter: w, dead: &rep.dead}, r)
	}))
	t.Cleanup(rep.srv.Close)
	t.Cleanup(func() { rep.hang.Store(false); close(rep.release) })
	return rep
}

type killableWriter struct {
	http.ResponseWriter
	dead *atomic.Bool
}

func (kw *killableWriter) Write(p []byte) (int, error) {
	if kw.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	return kw.ResponseWriter.Write(p)
}

func realFleet(t *testing.T, n int, dir string, opts Options) (*Router, []*realReplica) {
	t.Helper()
	reps := make([]*realReplica, n)
	for i := range reps {
		reps[i] = newRealReplica(t, dir)
		opts.Replicas = append(opts.Replicas, reps[i].srv.URL)
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt, reps
}

func waitInflightDrain(t *testing.T, rt *Router) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var total int64
		for _, rep := range rt.Replicas() {
			total += rep.inflight.Load()
		}
		if total == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica inflight gauges did not drain: %d attempts still tracked", total)
		}
		time.Sleep(time.Millisecond)
	}
}

// chaosURLs is the request mix: both figures, both fast workloads,
// both formats — several distinct affinity keys so the whole fleet
// carries traffic.
var chaosURLs = []string{
	"/v1/sweep?fig=5b&workloads=let",
	"/v1/sweep?fig=5b&workloads=ncf",
	"/v1/sweep?fig=5b&workloads=let,ncf",
	"/v1/sweep?fig=6b&workloads=let,ncf",
	"/v1/sweep?fig=5b&workloads=let&format=csv",
	"/v1/sweep?fig=6b&workloads=ncf&format=csv",
}

// referenceBodies evaluates the chaos mix on a plain single-process
// API over its own cache dir: the ground truth the routed fleet must
// reproduce byte for byte.
func referenceBodies(t *testing.T) map[string]string {
	t.Helper()
	cache, err := rescache.New(rescache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	h := serve.NewAPI(cache, 0).Handler()
	ref := make(map[string]string, len(chaosURLs))
	for _, url := range chaosURLs {
		rec := get(t, h, url, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("reference %s: %d %s", url, rec.Code, rec.Body.String())
		}
		ref[url] = rec.Body.String()
	}
	return ref
}

// TestChaosReplicaDeathMidLoad is the transparency proof: three real
// replicas over one shared cache dir take concurrent sweep load, one
// is killed mid-run (connections abort, including mid-body), and every
// client still gets a 200 whose body is byte-identical to the
// single-replica reference. The death is visible only in the router's
// counters.
func TestChaosReplicaDeathMidLoad(t *testing.T) {
	ref := referenceBodies(t)
	rt, reps := realFleet(t, 3, t.TempDir(), Options{
		RetryBudget: 4,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	})
	h := rt.Handler()

	// Identify the replica that owns the first URL's affinity key, so
	// the kill is guaranteed to hit a loaded replica.
	first := get(t, h, chaosURLs[0], nil)
	if first.Code != http.StatusOK {
		t.Fatalf("warmup: %d %s", first.Code, first.Body.String())
	}
	victimAddr := first.Header().Get("X-Seda-Replica")
	var victim *realReplica
	for _, rep := range reps {
		if rep.srv.URL == "http://"+victimAddr {
			victim = rep
		}
	}
	if victim == nil {
		t.Fatalf("victim %q not in fleet", victimAddr)
	}

	const workers, perWorker = 8, 12
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	var fired sync.Once
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWorker {
				if w == 0 && i == perWorker/3 {
					fired.Do(func() { victim.dead.Store(true) }) // SIGKILL mid-load
				}
				url := chaosURLs[(w+i)%len(chaosURLs)]
				rec := get(t, h, url, nil)
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("%s: %d %s", url, rec.Code, rec.Body.String())
					continue
				}
				if rec.Body.String() != ref[url] {
					errs <- fmt.Sprintf("%s: body diverged from the single-replica reference", url)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("client-visible fault: %s", e)
	}
	waitInflightDrain(t, rt)

	fams := scrape(t, h)
	if v := counterValue(t, fams, "seda_router_failover_total"); v < 1 {
		t.Fatalf("failover_total = %v after a replica death, want >= 1", v)
	}
	if v := counterValue(t, fams, "seda_router_retries_total"); v < 1 {
		t.Fatalf("retries_total = %v after a replica death, want >= 1", v)
	}
	if v := counterValue(t, fams, "seda_router_unserved_total"); v != 0 {
		t.Fatalf("unserved_total = %v, want 0 (no request may be dropped)", v)
	}
}

// TestChaosHungReplica: a wedged replica (accepts connections, never
// answers) is cut off by the per-attempt timeout, failed over, and its
// breaker opens — clients see only 200s.
func TestChaosHungReplica(t *testing.T) {
	rt, reps := realFleet(t, 3, t.TempDir(), Options{
		RetryBudget:      3,
		BackoffBase:      time.Millisecond,
		AttemptTimeout:   150 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	h := rt.Handler()

	url := chaosURLs[0]
	warm := get(t, h, url, nil)
	if warm.Code != http.StatusOK {
		t.Fatalf("warmup: %d", warm.Code)
	}
	const exploreURL = "/v1/explore?spec=rows%3D16%7C32&workloads=let"
	warmExplore := get(t, h, exploreURL, nil)
	if warmExplore.Code != http.StatusOK {
		t.Fatalf("explore warmup: %d %s", warmExplore.Code, warmExplore.Body.String())
	}
	hungAddr := warm.Header().Get("X-Seda-Replica")
	for _, rep := range reps {
		if rep.srv.URL == "http://"+hungAddr {
			rep.hang.Store(true)
		}
	}

	for i := range 4 {
		rec := get(t, h, url, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d against a hung home: %d %s", i, rec.Code, rec.Body.String())
		}
		if rec.Body.String() != warm.Body.String() {
			t.Fatalf("request %d: failover body diverged", i)
		}
	}
	var hungOpen bool
	for _, rep := range rt.Replicas() {
		if rep.Name == hungAddr && rep.BreakerState() == BreakerOpen {
			hungOpen = true
		}
	}
	if !hungOpen {
		t.Fatal("hung replica's breaker never opened")
	}
	waitInflightDrain(t, rt)
}

// TestChaosFlappingHealth: a health surface failing probabilistically
// (the cluster.health failpoint with a probability modifier, seeded
// for reproducibility) flaps replicas between up and down — and none
// of it reaches clients, because ranking only ever demotes, never
// empties, the candidate list.
func TestChaosFlappingHealth(t *testing.T) {
	defer failpoint.Reset()
	rt, _ := realFleet(t, 3, t.TempDir(), Options{
		RetryBudget: 4,
		BackoffBase: time.Millisecond,
	})
	h := rt.Handler()
	ctx := t.Context()

	failpoint.SeedSampling(42)
	if err := failpoint.Enable(FailpointHealth, "0.5*error(flaky probe link)"); err != nil {
		t.Fatal(err)
	}
	sawDown := false
	for range 20 {
		rt.ProbeNow(ctx)
		for _, rep := range rt.Replicas() {
			if !rep.Alive() {
				sawDown = true
			}
		}
		if rec := get(t, h, chaosURLs[0], nil); rec.Code != http.StatusOK {
			t.Fatalf("request during health flapping: %d %s", rec.Code, rec.Body.String())
		}
	}
	if !sawDown {
		t.Fatal("0.5-probability probe fault never marked a replica down in 60 probes")
	}

	// The storm passes: probes succeed again and the whole fleet
	// returns to ready (half-open trials close any opened breakers
	// after their cooldown).
	failpoint.Reset()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rt.ProbeNow(ctx)
		ready := 0
		for _, rep := range rt.Replicas() {
			if rep.Ready() && rep.BreakerState() == BreakerClosed {
				ready++
			}
		}
		if ready == len(rt.Replicas()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not recover after the probe fault cleared: %d/%d ready", ready, len(rt.Replicas()))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStaleServeWhenFleetDown: the graceful-degradation path. A warm
// result published to the shared disk tier is still served (marked
// stale) when every replica is gone; a cold request honestly 503s.
// Both hold for a sweep and for an exploration, whose stale answer the
// router rebuilds from the confirmations cached on disk.
func TestStaleServeWhenFleetDown(t *testing.T) {
	dir := t.TempDir()
	rt, reps := realFleet(t, 2, dir, Options{
		RetryBudget:      2,
		BackoffBase:      time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		Degraded:         degradedAPI(t, dir),
	})
	h := rt.Handler()

	url := chaosURLs[0]
	warm := get(t, h, url, nil)
	if warm.Code != http.StatusOK {
		t.Fatalf("warmup: %d", warm.Code)
	}
	const exploreURL = "/v1/explore?spec=rows%3D16%7C32&workloads=let"
	warmExplore := get(t, h, exploreURL, nil)
	if warmExplore.Code != http.StatusOK {
		t.Fatalf("explore warmup: %d %s", warmExplore.Code, warmExplore.Body.String())
	}

	for _, rep := range reps {
		rep.dead.Store(true)
	}
	// Burn the breakers open so the fleet is truly out of candidates
	// (a cold URL, so these burns exercise retry, not the stale tier).
	for range 4 {
		get(t, h, "/v1/sweep?fig=5b&workloads=sent", nil)
	}

	stale := get(t, h, url, nil)
	if stale.Code != http.StatusOK {
		t.Fatalf("warm result with fleet down: %d %s", stale.Code, stale.Body.String())
	}
	if stale.Header().Get("X-Seda-Stale") != "true" {
		t.Fatal("stale response not marked X-Seda-Stale")
	}
	if w := stale.Header().Get("Warning"); !strings.Contains(w, "110") {
		t.Fatalf("stale response Warning = %q, want a 110 stale-response warning", w)
	}
	if stale.Body.String() != warm.Body.String() {
		t.Fatal("stale body diverged from the originally served result")
	}

	staleExplore := get(t, h, exploreURL, nil)
	if staleExplore.Code != http.StatusOK {
		t.Fatalf("warm exploration with fleet down: %d %s", staleExplore.Code, staleExplore.Body.String())
	}
	if staleExplore.Header().Get("X-Seda-Stale") != "true" {
		t.Fatal("stale exploration not marked X-Seda-Stale")
	}
	if staleExplore.Body.String() != warmExplore.Body.String() {
		t.Fatal("stale exploration body diverged from the originally served one")
	}
	// A grid point no replica confirmed: the stale tier cannot confirm
	// it either.
	if rec := get(t, h, "/v1/explore?spec=rows%3D24&workloads=let", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cold exploration with fleet down: %d, want 503", rec.Code)
	}

	// A workload the fleet never evaluated: the cache-only tier cannot
	// compute it, so the router must answer an honest 503. (fig=6b with
	// the warm workloads would NOT be cold — the disk tier is keyed by
	// per-workload config fingerprints, which a figure change shares.)
	cold := get(t, h, "/v1/sweep?fig=5b&workloads=dlrm", nil)
	if cold.Code != http.StatusServiceUnavailable {
		t.Fatalf("cold request with fleet down: %d, want 503", cold.Code)
	}
	if cold.Header().Get("Retry-After") == "" {
		t.Fatal("degraded 503 without Retry-After")
	}

	// Catalog routes never go stale: they are answered locally.
	cat := get(t, h, "/v1/workloads", nil)
	if cat.Code != http.StatusOK || cat.Header().Get("X-Seda-Stale") != "" {
		t.Fatalf("catalog with fleet down: %d stale=%q", cat.Code, cat.Header().Get("X-Seda-Stale"))
	}

	fams := scrape(t, h)
	if v := counterValue(t, fams, "seda_router_stale_served_total"); v != 2 {
		t.Fatalf("stale_served_total = %v, want 2 (the sweep and the exploration)", v)
	}
	if v := counterValue(t, fams, "seda_router_unserved_total"); v < 1 {
		t.Fatalf("unserved_total = %v, want >= 1 (the cold miss)", v)
	}
}

func degradedAPI(t *testing.T, dir string) *serve.API {
	t.Helper()
	cache, err := rescache.New(rescache.Options{Dir: dir, CacheOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	return serve.NewAPI(cache, 0)
}
