package loadgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// RunOptions configures one measured run.
type RunOptions struct {
	Scenario *Scenario
	// Seed overrides the scenario's embedded seed when non-zero.
	Seed uint64
	// Target is the base URL traffic is sent to (replica or router).
	Target string
	// Scrape lists base URLs whose /metrics are sampled at every phase
	// boundary; counter deltas are summed across them. Default: the
	// target itself. Behind a router the replicas own the cache
	// counters, so fleet runs list the router plus every replica here.
	Scrape []string
	// Client is the HTTP client; default shares a pooled transport.
	Client *http.Client
	// RequestTimeout bounds one request (default 30s).
	RequestTimeout time.Duration
	// Logf, when set, receives one progress line per phase.
	Logf func(format string, args ...any)
}

// Run replays the scenario against the target and returns the measured
// report. The run fails only on harness-level errors (unusable target
// URL, scenario exhausted by ctx cancellation); responses of every
// status are data, not errors.
func Run(ctx context.Context, opts RunOptions) (*Report, error) {
	sc := opts.Scenario
	if sc == nil {
		return nil, fmt.Errorf("loadgen: nil scenario")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = sc.Seed
	}
	if seed == 0 {
		seed = 1
	}
	target := strings.TrimRight(opts.Target, "/")
	if target == "" {
		return nil, fmt.Errorf("loadgen: empty target URL")
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	}
	timeout := opts.RequestTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	scrape := opts.Scrape
	if len(scrape) == 0 {
		scrape = []string{target}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	rep := &Report{
		LoadgenVersion: ReportVersion,
		Scenario:       sc.Name,
		Seed:           seed,
		Target:         target,
		ScheduleDigest: sc.ScheduleDigest(seed),
	}
	ex := &executor{
		client:  client,
		target:  target,
		timeout: timeout,
		etags:   make(map[string]string),
		bodies:  make(map[string]string),
	}

	var totalHist obs.Histogram
	var totalDur time.Duration
	for i := range sc.Phases {
		p := &sc.Phases[i]
		before, err := ScrapeCounters(ctx, client, scrape)
		if err != nil {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("phase %s: pre-scrape: %v", p.Name, err))
			before = nil
		}

		pr, err := ex.runPhase(ctx, p, seed, i, &totalHist)
		if err != nil {
			return nil, fmt.Errorf("phase %s: %w", p.Name, err)
		}

		if before != nil {
			after, err := ScrapeCounters(ctx, client, scrape)
			if err != nil {
				rep.Warnings = append(rep.Warnings, fmt.Sprintf("phase %s: post-scrape: %v", p.Name, err))
			} else {
				pr.MetricsDelta = deltaCounters(before, after)
			}
		}
		rep.Phases = append(rep.Phases, pr)
		rep.Totals.Status.add(pr.Status)
		totalDur += time.Duration(pr.DurationSeconds * float64(time.Second))
		logf("phase %s: %d requests in %.2fs (%.1f rps), p99=%s, errors=%d",
			p.Name, pr.Status.Total(), pr.DurationSeconds,
			pr.AchievedRPS, time.Duration(pr.Latency.P99*float64(time.Second)).Round(time.Microsecond),
			pr.Status.Errors())
	}

	rep.Totals.Requests = rep.Totals.Status.Total()
	rep.Totals.Latency = summarizeHist(&totalHist)
	rep.Totals.ShedRate = rate(rep.Totals.Status.Shed+rep.Totals.Status.Rejected, rep.Totals.Status.Total())
	rep.Totals.StaleRate = rate(rep.Totals.Status.Stale, rep.Totals.Status.Total())
	if s := totalDur.Seconds(); s > 0 {
		rep.Totals.AchievedRPS = math.Round(float64(rep.Totals.Status.Total())/s*100) / 100
	}
	rep.BodyDivergence()
	return rep, nil
}

// BodyDivergence folds per-phase divergence into a totals warning; the
// per-phase counters are already in place, this only audits them.
func (r *Report) BodyDivergence() {
	var n uint64
	for i := range r.Phases {
		n += r.Phases[i].BodyDivergence
	}
	if n > 0 {
		r.Warnings = append(r.Warnings, fmt.Sprintf("%d responses diverged from the first-seen body for their URL", n))
	}
}

// executor holds cross-phase client state: the validator cache (ETags
// learned per URL) and the first-seen body digest per (URL, Accept),
// which catches a replica serving different bytes for the same
// deterministic computation — the consistency invariant the
// content-addressed cache is supposed to guarantee fleet-wide.
type executor struct {
	client  *http.Client
	target  string
	timeout time.Duration

	mu     sync.Mutex
	etags  map[string]string
	bodies map[string]string
}

// collector accumulates one phase's measurements. Every latency goes
// into the phase's histogram and the run's total alike.
type collector struct {
	hist, total *obs.Histogram

	mu     sync.Mutex
	counts Counts
	div    uint64
}

func (c *collector) record(d time.Duration, out outcome, diverged bool) {
	c.hist.Observe(d)
	c.total.Observe(d)
	c.mu.Lock()
	defer c.mu.Unlock()
	if diverged {
		c.div++
	}
	switch out {
	case outOK:
		c.counts.OK++
	case outStale:
		c.counts.Stale++
	case outNotModified:
		c.counts.NotModified++
	case outRejected:
		c.counts.Rejected++
	case outShed:
		c.counts.Shed++
	case outTimeout:
		c.counts.Timeout++
	case outClientError:
		c.counts.ClientError++
	case outServerError:
		c.counts.ServerError++
	case outTransportError:
		c.counts.TransportError++
	}
}

type outcome int

const (
	outOK outcome = iota
	outStale
	outNotModified
	outRejected
	outShed
	outTimeout
	outClientError
	outServerError
	outTransportError
)

// runPhase drives the phase's Clients workers, each holding at most
// one request open, pulling from the shared deterministic stream until
// the stream (counted) or the deadline (duration-bounded) ends it.
func (ex *executor) runPhase(ctx context.Context, p *Phase, seed uint64, idx int, total *obs.Histogram) (PhaseReport, error) {
	st := newPhaseStream(p, seed, idx)
	col := &collector{hist: new(obs.Histogram), total: total}
	start := time.Now()
	var deadline time.Time
	if p.Duration > 0 {
		deadline = start.Add(time.Duration(p.Duration))
	}
	var streamMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < p.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				streamMu.Lock()
				req, ok := st.next()
				streamMu.Unlock()
				if !ok {
					return
				}
				t0 := time.Now()
				out, div := ex.do(ctx, req)
				col.record(time.Since(t0), out, div)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return PhaseReport{}, err
	}

	elapsed := time.Since(start)
	n := col.counts.Total()
	pr := PhaseReport{
		Name:            p.Name,
		Clients:         p.Clients,
		PlannedRequests: p.Requests,
		DurationSeconds: math.Round(elapsed.Seconds()*1000) / 1000,
		Latency:         summarizeHist(col.hist),
		Status:          col.counts,
		ShedRate:        rate(col.counts.Shed+col.counts.Rejected, n),
		StaleRate:       rate(col.counts.Stale, n),
		BodyDivergence:  col.div,
	}
	if s := elapsed.Seconds(); s > 0 {
		pr.AchievedRPS = math.Round(float64(n)/s*100) / 100
	}
	return pr, nil
}

// do executes one planned request and classifies the response. The
// second return reports body divergence: a 200 whose bytes differ from
// the first-seen body for the same (URL, Accept) — the response still
// counts as OK in the taxonomy (the server answered), divergence has
// its own counter so the consistency check doesn't hide in errors.
func (ex *executor) do(ctx context.Context, req Req) (outcome, bool) {
	rctx, cancel := context.WithTimeout(ctx, ex.timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(rctx, http.MethodGet, ex.target+req.Path, nil)
	if err != nil {
		return outTransportError, false
	}
	if req.Accept != "" {
		hreq.Header.Set("Accept", req.Accept)
	}
	if req.Reval {
		ex.mu.Lock()
		etag := ex.etags[req.Path]
		ex.mu.Unlock()
		if etag != "" {
			hreq.Header.Set("If-None-Match", etag)
		}
	}
	resp, err := ex.client.Do(hreq)
	if err != nil {
		return outTransportError, false
	}
	body, readErr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close() //nolint:errcheck
	if readErr != nil {
		return outTransportError, false
	}
	return ex.classify(req, resp, body)
}

func (ex *executor) classify(req Req, resp *http.Response, body []byte) (outcome, bool) {
	switch {
	case resp.StatusCode == http.StatusOK:
		stale := resp.Header.Get("X-Seda-Stale") != ""
		diverged := false
		ex.mu.Lock()
		if etag := resp.Header.Get("ETag"); etag != "" {
			ex.etags[req.Path] = etag
		}
		if !stale {
			// First-seen body digest per (URL, Accept): deterministic
			// computation means later 200s must serve identical bytes.
			key := req.Path + "\x00" + req.Accept
			sum := sha256.Sum256(body)
			digest := hex.EncodeToString(sum[:])
			if prev, ok := ex.bodies[key]; !ok {
				ex.bodies[key] = digest
			} else if prev != digest {
				diverged = true
			}
		}
		ex.mu.Unlock()
		if stale {
			return outStale, false
		}
		return outOK, diverged
	case resp.StatusCode == http.StatusNotModified:
		return outNotModified, false
	case resp.StatusCode == http.StatusTooManyRequests:
		return outRejected, false
	case resp.StatusCode == http.StatusServiceUnavailable:
		return outShed, false
	case resp.StatusCode == http.StatusGatewayTimeout:
		return outTimeout, false
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return outClientError, false
	default:
		return outServerError, false
	}
}
