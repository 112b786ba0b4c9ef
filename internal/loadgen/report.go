package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/obs"
)

// ReportVersion is bumped whenever the report schema changes shape, so
// a report names the schema it was produced under.
const ReportVersion = "2"

// Counts is the response taxonomy. Every finished request lands in
// exactly one bucket; Errors() is the "client-visible failure" rollup
// the chaos assertions use (shed and rejected are flow control — the
// server answered honestly — and stale is a degraded success).
type Counts struct {
	OK             uint64 `json:"ok"`              // 200 without a stale marker
	Stale          uint64 `json:"stale"`           // 200 with X-Seda-Stale (degraded tier)
	NotModified    uint64 `json:"not_modified"`    // 304 revalidation
	Rejected       uint64 `json:"rejected"`        // 429 rate limiting, from whatever the target is
	Shed           uint64 `json:"shed"`            // 503 capacity/availability shed
	Timeout        uint64 `json:"timeout"`         // 504 deadline
	ClientError    uint64 `json:"client_error"`    // other 4xx
	ServerError    uint64 `json:"server_error"`    // other 5xx
	TransportError uint64 `json:"transport_error"` // connect/read failures
}

// Total counts every finished request.
func (c Counts) Total() uint64 {
	return c.OK + c.Stale + c.NotModified + c.Rejected + c.Shed +
		c.Timeout + c.ClientError + c.ServerError + c.TransportError
}

// Errors is the client-visible failure rollup: hard errors only.
func (c Counts) Errors() uint64 {
	return c.Timeout + c.ClientError + c.ServerError + c.TransportError
}

func (c *Counts) add(o Counts) {
	c.OK += o.OK
	c.Stale += o.Stale
	c.NotModified += o.NotModified
	c.Rejected += o.Rejected
	c.Shed += o.Shed
	c.Timeout += o.Timeout
	c.ClientError += o.ClientError
	c.ServerError += o.ServerError
	c.TransportError += o.TransportError
}

// LatencySummary is the report shape of one histogram. Values are
// seconds rounded to the microsecond, matching the histogram's floor
// resolution, so reports are stable to re-marshal.
type LatencySummary struct {
	Unit  string  `json:"unit"` // always "seconds"
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func summarizeHist(h *obs.Histogram) LatencySummary {
	sec := func(d time.Duration) float64 {
		return math.Round(d.Seconds()*1e6) / 1e6
	}
	return LatencySummary{
		Unit:  "seconds",
		Count: h.Count(),
		Mean:  sec(h.Mean()),
		P50:   sec(h.Quantile(0.50)),
		P90:   sec(h.Quantile(0.90)),
		P95:   sec(h.Quantile(0.95)),
		P99:   sec(h.Quantile(0.99)),
		Max:   sec(h.Max()),
	}
}

// PhaseReport is one phase's measured outcome.
type PhaseReport struct {
	Name    string `json:"name"`
	Clients int    `json:"clients,omitempty"`
	// PlannedRequests is the deterministic schedule size (0 when the
	// phase is bounded by wall clock).
	PlannedRequests int     `json:"planned_requests,omitempty"`
	DurationSeconds float64 `json:"duration_seconds"`
	AchievedRPS     float64 `json:"achieved_rps"`

	Latency        LatencySummary `json:"latency"`
	Status         Counts         `json:"status"`
	ShedRate       float64        `json:"shed_rate"`  // (shed+rejected)/total, client-observed
	StaleRate      float64        `json:"stale_rate"` // stale/total, client-observed
	BodyDivergence uint64         `json:"body_divergence"`

	// MetricsDelta holds per-counter-family deltas (after − before)
	// summed over every scraped /metrics endpoint, attributing cache
	// hits, disk hits, coalesced waits, fresh computes, sheds and
	// router failovers to exactly this phase's traffic.
	MetricsDelta map[string]float64 `json:"metrics_delta,omitempty"`
}

// Summary aggregates the whole run.
type Summary struct {
	Requests    uint64         `json:"requests"`
	AchievedRPS float64        `json:"achieved_rps"`
	Latency     LatencySummary `json:"latency"`
	Status      Counts         `json:"status"`
	ShedRate    float64        `json:"shed_rate"`
	StaleRate   float64        `json:"stale_rate"`
}

// Report is the machine-readable outcome of one run (or plan).
type Report struct {
	LoadgenVersion string        `json:"loadgen_version"`
	Scenario       string        `json:"scenario"`
	Seed           uint64        `json:"seed"`
	Target         string        `json:"target,omitempty"`
	Plan           bool          `json:"plan,omitempty"`
	ScheduleDigest string        `json:"schedule_digest"`
	Phases         []PhaseReport `json:"phases"`
	Totals         Summary       `json:"totals"`
	Warnings       []string      `json:"warnings,omitempty"`
}

// WriteJSON writes the report with stable formatting (two-space
// indent, sorted map keys via encoding/json) plus a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func rate(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return math.Round(float64(part)/float64(total)*1e6) / 1e6
}

// Plan builds the deterministic, execution-free report for (scenario,
// seed): phase shapes, planned request counts and the schedule digest,
// with every timing field zero. Same inputs → byte-identical JSON.
func Plan(sc *Scenario, seed uint64) *Report {
	rep := &Report{
		LoadgenVersion: ReportVersion,
		Scenario:       sc.Name,
		Seed:           seed,
		Plan:           true,
		ScheduleDigest: sc.ScheduleDigest(seed),
	}
	for _, p := range sc.Phases {
		rep.Phases = append(rep.Phases, PhaseReport{
			Name:            p.Name,
			Clients:         p.Clients,
			PlannedRequests: p.Requests,
			Latency:         LatencySummary{Unit: "seconds"},
		})
	}
	rep.Totals.Latency = LatencySummary{Unit: "seconds"}
	return rep
}

// ScrapeCounters fetches every endpoint's /metrics through the strict
// exposition parser and returns counter-family totals summed across
// endpoints and label sets. Endpoints are base URLs; the /metrics path
// is appended. One unreachable or malformed endpoint fails the scrape
// — a report attributing deltas to half a fleet would lie.
func ScrapeCounters(ctx context.Context, client *http.Client, endpoints []string) (map[string]float64, error) {
	if client == nil {
		client = http.DefaultClient
	}
	totals := make(map[string]float64)
	for _, ep := range endpoints {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep+"/metrics", nil)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", ep, err)
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", ep, err)
		}
		fams, perr := obs.ParseProm(resp.Body)
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("scrape %s: status %d", ep, resp.StatusCode)
		}
		if perr != nil {
			return nil, fmt.Errorf("scrape %s: %w", ep, perr)
		}
		for name, v := range obs.CounterTotals(fams) {
			totals[name] += v
		}
	}
	return totals, nil
}

// deltaCounters returns after−before for every family present in
// after, dropping zero deltas (idle families are noise in a report).
func deltaCounters(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64)
	for name, v := range after {
		if dv := v - before[name]; dv != 0 {
			d[name] = dv
		}
	}
	if len(d) == 0 {
		return nil
	}
	return d
}
