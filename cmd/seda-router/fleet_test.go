package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestFleetSurvivesSIGKILL pins the fleet's failover contract over
// real processes. Three seda-serve replicas share one disk cache
// behind seda-router; four closed-loop clients hammer one warm sweep
// URL while the URL's affinity home is killed with SIGKILL. Through
// the kill every response must be a 200, and every 200 not served
// from the stale tier must carry the warm body byte for byte. The
// router's metrics must show the failover, the dead replica and no
// leaked attempt, and the router must readmit the replica once it
// restarts on its old address.
func TestFleetSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a router over three replicas")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go not on PATH")
	}
	dir := t.TempDir()
	if out, err := exec.Command(goBin, "build", "-o", dir+string(filepath.Separator),
		"repro/cmd/seda-serve", "repro/cmd/seda-router").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cache := filepath.Join(dir, "cache")
	serveBin := filepath.Join(dir, "seda-serve")

	// Boot the fleet.
	replicas := make([]*proc, 3)
	addrs := make([]string, len(replicas))
	for i := range replicas {
		replicas[i] = startProc(t, dir, fmt.Sprintf("replica-%d", i), serveBin, "127.0.0.1:0", "-cache-dir", cache)
	}
	for i, p := range replicas {
		addrs[i] = p.waitAddr(t)
	}
	router := startProc(t, dir, "router", filepath.Join(dir, "seda-router"), "127.0.0.1:0",
		"-replicas", strings.Join(addrs, ","), "-cache-dir", cache,
		"-retry-budget", "4", "-backoff-base", "5ms", "-breaker-threshold", "2",
		"-breaker-cooldown", "2s", "-health-interval", "200ms")
	base := "http://" + router.waitAddr(t)
	hc := &http.Client{Timeout: 30 * time.Second}
	waitFor(t, 20*time.Second, "router /readyz 200 with every replica up and ready", func() bool {
		if st, _, _, err := get(hc, base+"/readyz", nil); err != nil || st != http.StatusOK {
			return false
		}
		fams := scrape(t, hc, base)
		for _, a := range addrs {
			if replicaGauge(fams, "seda_router_replica_up", a) != 1 ||
				replicaGauge(fams, "seda_router_replica_ready", a) != 1 {
				return false
			}
		}
		return true
	})

	// Warm the URL, so the kill window exercises cache hits rather than
	// one cold compute, and keep its body as the reference. The
	// replica that answered is the URL's affinity home: killing it
	// lands the death on the replica carrying the load.
	url := base + "/v1/sweep?fig=5b&workloads=let,ncf"
	st, hdr, warm, err := get(hc, url, nil)
	if err != nil || st != http.StatusOK {
		t.Fatalf("warm request: status %d, err %v", st, err)
	}
	victimAddr := hdr.Get("X-Seda-Replica")
	victim := -1
	for i, a := range addrs {
		if a == victimAddr {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("X-Seda-Replica %q names no replica of %v", victimAddr, addrs)
	}

	// One request ID ties the router's access line to the replica's:
	// the router forwards the caller's X-Request-Id.
	const rid = "fleet-sigkill-1"
	if st, _, _, err := get(hc, url, map[string]string{"X-Request-Id": rid}); err != nil || st != http.StatusOK {
		t.Fatalf("request %s: status %d, err %v", rid, st, err)
	}
	waitFor(t, 5*time.Second, "request "+rid+" in the router's and a replica's log", func() bool {
		if !loggedRequest(t, router.log, rid) {
			return false
		}
		for _, p := range replicas {
			if loggedRequest(t, p.log, rid) {
				return true
			}
		}
		return false
	})

	// Kill under load: four closed-loop clients, the victim SIGKILLed a
	// second in, the load held three seconds past the kill.
	var (
		tl           tally
		killed, stop atomic.Bool
		wg           sync.WaitGroup
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				post := killed.Load()
				st, hdr, body, err := get(hc, url, nil)
				tl.record(st, hdr, body, err, warm, post)
			}
		}()
	}
	time.Sleep(time.Second)
	if err := replicas[victim].cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL %s: %v", victimAddr, err)
	}
	replicas[victim].cmd.Wait() //nolint:errcheck // killed on purpose
	killed.Store(true)
	time.Sleep(3 * time.Second)
	stop.Store(true)
	wg.Wait()

	// The three assertions of the kill window.
	t.Logf("load: %+v", tl.counts)
	c := tl.counts
	if hard := c.timeout + c.clientError + c.serverError + c.transportError; hard != 0 {
		t.Errorf("%d hard errors through the kill (%+v)", hard, c)
	}
	if c.shed+c.rejected != 0 {
		t.Errorf("%d shed and %d rejected through the kill", c.shed, c.rejected)
	}
	if tl.diverged != 0 {
		t.Errorf("%d fresh 200 bodies differ from the warm body", tl.diverged)
	}
	if c.ok == 0 || tl.afterKill == 0 {
		t.Errorf("%d fresh 200s, %d responses to requests sent after the kill; want both > 0", c.ok, tl.afterKill)
	}

	// The router saw the failover and the dead replica, and no attempt
	// is left outstanding.
	fams := scrape(t, hc, base)
	if v := value(fams, "seda_router_failover_total", nil); v <= 0 {
		t.Errorf("seda_router_failover_total = %v, want > 0", v)
	}
	if fam := fams["seda_router_replica_inflight"]; fam == nil {
		t.Error("metrics missing seda_router_replica_inflight")
	} else {
		for _, s := range fam.Samples {
			if s.Value > 0 {
				t.Errorf("%s%v = %v after the load, want 0", s.Name, s.Labels, s.Value)
			}
		}
	}
	if v := replicaGauge(fams, "seda_router_replica_up", victimAddr); v != 0 {
		t.Errorf("seda_router_replica_up for killed %s = %v, want 0", victimAddr, v)
	}
	if t.Failed() {
		return
	}

	// Readmission: the victim restarts on its old address, the health
	// probes close its breaker through the half-open trial, and
	// requests flow.
	restarted := startProc(t, dir, fmt.Sprintf("replica-%d-restart", victim), serveBin, victimAddr, "-cache-dir", cache)
	restarted.waitAddr(t)
	waitFor(t, 30*time.Second, "breaker closed and replica up after the restart", func() bool {
		fams := scrape(t, hc, base)
		return replicaGauge(fams, "seda_router_replica_up", victimAddr) == 1 &&
			replicaGauge(fams, "seda_router_breaker_state", victimAddr) == 0
	})
	if st, _, body, err := get(hc, url, nil); err != nil || st != http.StatusOK || !bytes.Equal(body, warm) {
		t.Fatalf("request after readmission: status %d, err %v, body equal to warm: %v", st, err, bytes.Equal(body, warm))
	}
}

// proc is one server process the test started. Its stdout and stderr
// go to log; t.Cleanup kills it.
type proc struct {
	cmd           *exec.Cmd
	log, addrFile string
}

func startProc(t *testing.T, dir, name, exe, addr string, args ...string) *proc {
	t.Helper()
	p := &proc{log: filepath.Join(dir, name+".log"), addrFile: filepath.Join(dir, name+".addr")}
	f, err := os.Create(p.log)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p.cmd = exec.Command(exe, append([]string{"-addr", addr, "-addr-file", p.addrFile}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = f, f
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	t.Cleanup(func() {
		p.cmd.Process.Kill() //nolint:errcheck // it may have exited already
		p.cmd.Wait()         //nolint:errcheck // killed
	})
	return p
}

// waitAddr returns the address the process published through
// -addr-file once bound.
func (p *proc) waitAddr(t *testing.T) string {
	t.Helper()
	var addr string
	waitFor(t, 20*time.Second, p.addrFile, func() bool {
		b, err := os.ReadFile(p.addrFile)
		addr = string(bytes.TrimSpace(b))
		return err == nil && addr != ""
	})
	return addr
}

// waitFor polls cond until it holds, failing the test after timeout.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
	}
}

func get(hc *http.Client, url string, hdr map[string]string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// scrape reads the router's /metrics through the strict exposition
// parser.
func scrape(t *testing.T, hc *http.Client, base string) map[string]*obs.PromFamily {
	t.Helper()
	st, _, body, err := get(hc, base+"/metrics", nil)
	if err != nil || st != http.StatusOK {
		t.Fatalf("/metrics: status %d, err %v", st, err)
	}
	fams, err := obs.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	return fams
}

// value returns the sample's value, or -1 when the series is missing.
func value(fams map[string]*obs.PromFamily, name string, labels map[string]string) float64 {
	fam, ok := fams[name]
	if !ok {
		return -1
	}
	v, err := fam.Value(name, labels)
	if err != nil {
		return -1
	}
	return v
}

// replicaGauge returns a per-replica gauge's value, or -1 when the
// series is missing.
func replicaGauge(fams map[string]*obs.PromFamily, name, replica string) float64 {
	return value(fams, name, map[string]string{"replica": replica})
}

// loggedRequest reports whether the JSON log holds the access line of
// the request with this ID.
func loggedRequest(t *testing.T, path, id string) bool {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		var line struct {
			Msg string `json:"msg"`
			ID  string `json:"id"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "request" && line.ID == id {
			return true
		}
	}
	return false
}

// counts classifies responses: ok and stale are 200s (stale ones
// carry X-Seda-Stale), shed is 503, rejected 429 and timeout 504; the
// other 4xx and 5xx are client and server errors; a request that got
// no response is a transport error.
type counts struct {
	ok, stale, shed, rejected, timeout, clientError, serverError, transportError int
}

// tally collects the kill window's outcomes from concurrent clients.
type tally struct {
	mu        sync.Mutex
	counts    counts
	diverged  int // fresh 200s whose body differs from the warm body
	afterKill int // responses to requests sent after the kill
}

func (tl *tally) record(st int, hdr http.Header, body []byte, err error, warm []byte, afterKill bool) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	c := &tl.counts
	switch {
	case err != nil:
		c.transportError++
	case st == http.StatusOK && hdr.Get("X-Seda-Stale") != "":
		c.stale++
	case st == http.StatusOK:
		c.ok++
		if !bytes.Equal(body, warm) {
			tl.diverged++
		}
	case st == http.StatusServiceUnavailable:
		c.shed++
	case st == http.StatusTooManyRequests:
		c.rejected++
	case st == http.StatusGatewayTimeout:
		c.timeout++
	case st >= 400 && st < 500:
		c.clientError++
	default:
		c.serverError++
	}
	if afterKill && err == nil {
		tl.afterKill++
	}
}
