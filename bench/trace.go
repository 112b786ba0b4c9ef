package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/bench/span"
)

// traceExplore is how many serve-cold requests the traced run sends to
// the fleet and also evaluates in-process, comparing the cycles.
const traceExplore = 20

// traceCold is how many serve-cold requests the traced run sends to the
// fleet to count the result cache's hits and misses.
const traceCold = 40

// traceRate is the arrival rate (requests per second) of the traced
// run's open loop, which measures how late the load generator sends on
// the host it runs on: on a shared host, the reason serve-warm measures
// latency in a closed loop.
const traceRate = 300

// layersOutput is what bench/layers prints.
type layersOutput struct {
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	ExploreExec []uint64    `json:"explore_exec"`
	Checked     int         `json:"checked"`
	Problems    []string    `json:"problems"`
	Spans       []span.Span `json:"spans"`
}

// runTrace is the traced run: the per-layer metrics of every workload.
// It times the pipeline layers in-process (bench/layers), then the
// serving layers against a fleet, and writes every span to spans.json
// in the run directory.
func runTrace(ctx context.Context, e *env) (*result, error) {
	r := &result{}
	rec := span.NewRecorder()

	lo, err := runLayers(ctx, e)
	if err != nil {
		return nil, err
	}
	r.attempted += lo.Checked + len(lo.ExploreExec)
	for _, p := range lo.Problems {
		r.fail("%s", p)
	}
	for name, v := range lo.Metrics {
		r.add(single(name, v.Unit, v.Value))
	}

	served, err := traceServing(ctx, e, rec, r)
	if err != nil {
		return nil, err
	}
	for i, c := range lo.ExploreExec {
		if i < len(served) && served[i] != c {
			spec, w := coldDraw(e.seed, i)
			r.fail("explore %s %s: served %d cycles, in-process %d", spec, w, served[i], c)
		}
	}

	f, err := os.Create(filepath.Join(e.dir, "spans.json"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(map[string][]span.Span{"harness": rec.Spans(), "layers": lo.Spans}); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "spans written to", f.Name())
	return r, nil
}

// runLayers builds and runs bench/layers on the first traceExplore
// serve-cold requests.
func runLayers(ctx context.Context, e *env) (*layersOutput, error) {
	exe := filepath.Join(e.bin, "layers")
	build := exec.CommandContext(ctx, "go", "build", "-o", exe, "./layers")
	build.Dir = filepath.Join(e.root, "bench")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building bench/layers: %w", err)
	}
	type query struct {
		Spec     string `json:"spec"`
		Workload string `json:"workload"`
	}
	var in struct {
		Explore []query `json:"explore"`
	}
	for i := 0; i < traceExplore; i++ {
		spec, w := coldDraw(e.seed, i)
		in.Explore = append(in.Explore, query{spec, w})
	}
	stdin, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	var stdout bytes.Buffer
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(stdin), &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench/layers: %w", err)
	}
	var lo layersOutput
	if err := json.Unmarshal(stdout.Bytes(), &lo); err != nil {
		return nil, fmt.Errorf("bench/layers output: %w", err)
	}
	return &lo, nil
}

// traceServing measures the serving layers on a warm fleet, then sends
// the first traceCold serve-cold requests. It returns the frontier
// cycles of the first traceExplore of them.
func traceServing(ctx context.Context, e *env, rec *span.Recorder, r *result) ([]uint64, error) {
	root := rec.Start("serving", "", -1)
	defer rec.End(root)
	res := warmResources(e.gold.workloads)
	clients := newClients(e.nproc)

	id := rec.Start("boot", "", root)
	f, _, err := startFleet(ctx, e.bin, e.dir, 2)
	rec.End(id)
	if err != nil {
		return nil, err
	}
	defer func() {
		if f != nil {
			f.stop() //nolint:errcheck // error path only; the success path checks stop
		}
	}()
	id = rec.Start("fill", "", root)
	known := fillWarm(ctx, e, f, clients[0], res, r)
	rec.End(id)

	// The router's own cost per request: the same 200 requests, one at
	// a time, through the router and straight to a replica, alternating.
	hop := warmMix(e.seed, 4, res, known)
	var viaRouter, direct []float64
	for pass := 0; pass < 4; pass++ {
		name, base, dst := "hop.router", f.router.base, &viaRouter
		if pass%2 == 1 {
			name, base, dst = "hop.replica", f.replicas[0].base, &direct
		}
		id = rec.Start(name, "", root)
		outs := phase{base: base, next: hop, limit: 200}.run(ctx, clients[:1])
		rec.End(id)
		checkWarm(r, outs, known)
		*dst = append(*dst, latenciesMS(outs)...)
	}
	pRouter, err1 := percentile(viaRouter, 0.5)
	pDirect, err2 := percentile(direct, 0.5)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("hop: %v %v", err1, err2)
	}
	r.add(single("cluster.hop_ms", "ms", pRouter-pDirect))

	// CPU and server time per request under a closed loop.
	m0, err := scrapeAll(ctx, f.replicas)
	if err != nil {
		return nil, err
	}
	rc0, err1 := f.router.cpu()
	sc0, err2 := cpuOf(f.replicas)
	id = rec.Start("closed", "", root)
	outs := phase{base: f.router.base, next: warmMix(e.seed, 5, res, known), limit: 2000}.run(ctx, clients)
	rec.End(id)
	rc1, err3 := f.router.cpu()
	sc1, err4 := cpuOf(f.replicas)
	m1, err5 := scrapeAll(ctx, f.replicas)
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		return nil, err
	}
	checkWarm(r, outs, known)
	n := float64(len(outs))
	var notModified float64
	for i := range outs {
		if outs[i].status == 304 {
			notModified++
		}
	}
	const sweepDur = `seda_request_duration_seconds_%s{route="/v1/sweep"}`
	r.add(
		single("cluster.cpu_ms_per_req", "ms", (rc1-rc0).Seconds()*1e3/n),
		single("serve.cpu_ms_per_req", "ms", (sc1-sc0).Seconds()*1e3/n),
		single("serve.server_ms", "ms", 1e3*ratio(delta(m0, m1, fmt.Sprintf(sweepDur, "sum")), delta(m0, m1, fmt.Sprintf(sweepDur, "count")))),
		single("serve.not_modified_ratio", "ratio", notModified/n),
	)

	// How late the generator sends in an open loop at traceRate, long
	// enough for its p99 to leave at least minBeyond requests above it.
	id = rec.Start("open", "", root)
	outs = phase{base: f.router.base, next: warmMix(e.seed, 6, res, known), sched: poissonSchedule(e.seed, traceRate, 5*time.Second)}.run(ctx, clients)
	rec.End(id)
	checkWarm(r, outs, known)
	late := make([]float64, len(outs))
	for i := range outs {
		late[i] = outs[i].lateness().Seconds() * 1e3
	}
	lag, err := percentile(late, 0.99)
	if err != nil {
		return nil, err
	}
	r.add(single("gen.lag_p99_ms", "ms", lag))

	// Explore requests for results not yet computed.
	m0, err = scrapeAll(ctx, f.replicas)
	if err != nil {
		return nil, err
	}
	id = rec.Start("cold", "", root)
	outs = phase{base: f.router.base, next: coldRequest(e.seed), limit: traceCold, keep: true}.run(ctx, clients)
	rec.End(id)
	if m1, err = scrapeAll(ctx, f.replicas); err != nil {
		return nil, err
	}
	cycles := checkCold(r, outs)
	d := func(name string) float64 { return delta(m0, m1, name) }
	hits := d("seda_cache_hits_total") + d("seda_cache_disk_hits_total")
	lookups := hits + d("seda_cache_misses_total") + d("seda_cache_coalesced_total")
	r.add(
		single("rescache.hit_ratio", "ratio", ratio(hits, lookups)),
		single("rescache.misses", "count", d("seda_cache_misses_total")),
		single("rescache.coalesced", "count", d("seda_cache_coalesced_total")),
		single("rescache.shed", "count", d("seda_cache_shed_total")),
		single("rescache.compute_ms", "ms", 1e3*ratio(d("seda_compute_duration_seconds_sum"), d("seda_compute_duration_seconds_count"))),
	)

	_, err = f.stop()
	f = nil
	if err != nil {
		return nil, err
	}
	return cycles[:min(traceExplore, len(cycles))], nil
}

func delta(before, after map[string]float64, name string) float64 { return after[name] - before[name] }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
