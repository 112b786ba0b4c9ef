package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// env is what every workload runs with.
type env struct {
	root    string // repository root
	bin     string // the built seda-sweep, seda-serve and seda-router
	dir     string // this run's scratch directory
	seed    uint64
	seconds time.Duration
	nproc   int
	gold    *goldens
}

// result is a workload's metrics plus its correctness accounting.
type result struct {
	metrics   []metric
	attempted int
	failed    int
	problems  []string
}

// fail records a failed operation and, for the first few, why.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// problem records a correctness failure that is not one operation.
func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) add(ms ...metric) { r.metrics = append(r.metrics, ms...) }

// warmSetups and coldSetups are how many times serve-warm and
// serve-cold set up their fleet; setup_s is the median. A warm set-up
// computes both full suites, a cold one only boots.
const (
	warmSetups = 3
	coldSetups = 9
)

// setupsPerSweep is how many times the suites time seda-sweep's set-up
// before each sweep they measure; setup_s is the median of all of them.
const setupsPerSweep = 11

// warmSlices is how many slices serve-warm's run is cut into; its rate
// and CPU per request are medians over them.
const warmSlices = 10

// latencyMetrics reports the median and tail of per-operation latency.
// The tail is the higher of p95 and p90 that leaves at least minBeyond
// samples above it, and the median when neither does. It is not p99: on
// a shared two-CPU host, single stalls of 10-60 ms decide the slowest
// percent, which moved serve-warm's p99 between 3 and 12 ms from run to
// run, while p95 has five times as many samples above it.
func latencyMetrics(lat []float64) []metric {
	p50 := median(lat)
	tail, q := p50, 0.5
	for _, cand := range []float64{0.95, 0.90} {
		if v, err := percentile(lat, cand); err == nil {
			tail, q = v, cand
			break
		}
	}
	fmt.Fprintf(os.Stderr, "tail_ms is p%g of %d samples\n", q*100, len(lat))
	return []metric{summarise("p50_ms", "ms", p50, lat), summarise("tail_ms", "ms", tail, lat)}
}

// sweepEnv is the environment of a seda-sweep process at gomaxprocs.
func sweepEnv(gomaxprocs int) []string {
	return append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
}

// sweepRun is one `seda-sweep -fig all -json` process.
type sweepRun struct {
	wall, cpu time.Duration
	rssMB     float64
	problem   string // empty when it exited cleanly with golden output
}

func runSweep(ctx context.Context, e *env, gomaxprocs int) sweepRun {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "seda-sweep"), "-fig", "all", "-json")
	cmd.Env = sweepEnv(gomaxprocs)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	s := sweepRun{wall: time.Since(t0)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.rssMB = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		s.problem = fmt.Sprintf("seda-sweep: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	} else if d := diffGolden(stdout.String(), e.gold.sweepAll()); d != "" {
		s.problem = "seda-sweep output differs from the goldens: " + d
	}
	return s
}

// runSuite is suite-cold (gomaxprocs = nproc) and suite-1cpu
// (gomaxprocs = 1): fresh `seda-sweep -fig all -json` processes, one
// after another, each checked against the goldens.
func runSuite(ctx context.Context, e *env, gomaxprocs int) (*result, error) {
	r := &result{}
	var setup, wall, rate, cpu, rss []float64
	var total float64
	t0 := time.Now()
	// Start another process only while it is expected to end in time.
	for len(wall) == 0 || time.Since(t0).Seconds()+median(wall)/1e3 <= e.seconds.Seconds() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Set-up is what every invocation pays before any figure work:
		// process start, package initialisation and exit, timed on the
		// cheapest command. It is timed before every sweep, not all at
		// the start, so that a stall of the host of a fraction of a
		// second cannot decide the run's median of a 2 ms start.
		for i := 0; i < setupsPerSweep; i++ {
			cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "seda-sweep"), "-table3")
			cmd.Env = sweepEnv(gomaxprocs)
			ts := time.Now()
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("seda-sweep -table3: %w", err)
			}
			setup = append(setup, time.Since(ts).Seconds())
		}
		s := runSweep(ctx, e, gomaxprocs)
		r.attempted++
		if s.problem != "" {
			r.fail("%s", s.problem)
		}
		wall = append(wall, s.wall.Seconds()*1e3)
		rate = append(rate, 1/s.wall.Seconds())
		cpu = append(cpu, s.cpu.Seconds()*1e3)
		rss = append(rss, s.rssMB)
		total += s.wall.Seconds()
	}
	r.add(summarise("setup_s", "s", median(setup), setup))
	r.add(latencyMetrics(wall)...)
	r.add(
		summarise("ops_per_s", "1/s", float64(len(wall))/total, rate),
		summarise("cpu_ms_per_op", "ms", median(cpu), cpu),
		summarise("peak_rss_mb", "MB", median(rss), rss),
	)
	return r, nil
}

// setUp sets up a fleet rounds times, each from scratch, and keeps the
// last. A set-up is a boot and, when fill is not nil, fill on the booted
// fleet; setUp returns how long each took in seconds.
func setUp(ctx context.Context, e *env, rounds int, fill func(*fleet)) (*fleet, []float64, error) {
	var times []float64
	var f *fleet
	for k := 0; k < rounds; k++ {
		if f != nil {
			if _, err := f.stop(); err != nil {
				return nil, nil, err
			}
		}
		var boot time.Duration
		var err error
		if f, boot, err = startFleet(ctx, e.bin, e.dir, 2); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if fill != nil {
			fill(f)
		}
		times = append(times, (boot + time.Since(t0)).Seconds())
	}
	return f, times, nil
}

// rep is one representation of a sweep result the service can return.
type rep struct {
	digest [32]byte
	etag   string
}

// warmResource is one cached result serve-warm asks for: its JSON path
// and, for a single figure, its CSV path.
type warmResource struct{ json, csv string }

// warmResources lists every figure (5a, 5b, 6a, 6b) over the full suite
// and over each single workload, plus the full-suite dump of both NPUs:
// 58 resources, 114 representations.
func warmResources(workloads []string) []warmResource {
	res := []warmResource{{json: "/v1/sweep?npu=server"}, {json: "/v1/sweep?npu=edge"}}
	for _, fig := range []string{"5a", "5b", "6a", "6b"} {
		for _, w := range append([]string{""}, workloads...) {
			p := "/v1/sweep?fig=" + fig
			if w != "" {
				p += "&workloads=" + w
			}
			res = append(res, warmResource{json: p, csv: p + "&format=csv"})
		}
	}
	return res
}

func warmPaths(res []warmResource) []string {
	var paths []string
	for _, r := range res {
		paths = append(paths, r.json)
		if r.csv != "" {
			paths = append(paths, r.csv)
		}
	}
	return paths
}

// warmMix returns serve-warm's request stream: resources drawn Zipf(1.1)
// over a fixed popularity order, 20% of figures asked for as CSV, and
// 25% of requests revalidating with the representation's ETag. Request
// i of a stream is a pure function of (seed, stream, i).
func warmMix(seed uint64, stream int, res []warmResource, known map[string]rep) func(int) request {
	// The popularity order is fixed, so every seed sees the same mix of
	// large (full-suite) and small (one-workload) bodies.
	order := rand.New(rand.NewPCG(0x5eda, 0x11)).Perm(len(res))
	cdf := make([]float64, len(res))
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), 1.1)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return func(i int) request {
		rng := rand.New(rand.NewPCG(seed, uint64(stream)<<32|uint64(i)))
		k := sort.SearchFloat64s(cdf, rng.Float64())
		r := res[order[min(k, len(res)-1)]]
		path := r.json
		if r.csv != "" && rng.Float64() < 0.2 {
			path = r.csv
		}
		req := request{path: path}
		if rng.Float64() < 0.25 {
			req.inm = known[path].etag
		}
		return req
	}
}

// checkWarm counts the outcomes and fails any that is not the one
// representation the fill recorded: a 200 with its bytes, or a 304 to a
// revalidation of its ETag.
func checkWarm(r *result, outs []outcome, known map[string]rep) {
	for i := range outs {
		o := &outs[i]
		r.attempted++
		k, ok := known[o.req.path]
		switch {
		case o.err != nil:
			r.fail("%s: %v", o.req.path, o.err)
		case !ok:
			r.fail("%s: not in the warm set", o.req.path)
		case o.status == 200 && o.digest == k.digest:
		case o.status == 304 && o.req.inm != "" && o.etag == k.etag:
		case o.status == 200:
			r.fail("%s: body differs from the one served at fill", o.req.path)
		default:
			r.fail("%s: status %d", o.req.path, o.status)
		}
	}
}

// fillWarm fetches every representation once through the router, then
// directly from every replica, and checks that all copies agree and the
// full-suite dumps equal the goldens. It returns each representation's
// digest and ETag. It sends one request at a time: with two, which
// replica computed what depended on how the requests raced, and the
// fleet's peak memory moved between 330 and 520 MB from run to run.
func fillWarm(ctx context.Context, e *env, f *fleet, client *http.Client, res []warmResource, r *result) map[string]rep {
	paths := warmPaths(res)
	all := func(base string, keep bool) []outcome {
		return phase{base: base, next: func(i int) request { return request{path: paths[i]} },
			limit: len(paths), keep: keep}.run(ctx, []*http.Client{client})
	}
	known := make(map[string]rep, len(paths))
	for _, o := range all(f.router.base, true) {
		r.attempted++
		if o.err != nil || o.status != 200 {
			r.fail("fill %s: status %d %v", o.req.path, o.status, o.err)
			continue
		}
		known[o.req.path] = rep{digest: o.digest, etag: o.etag}
		switch o.req.path {
		case "/v1/sweep?npu=server":
			if d := diffGolden(string(o.body), e.gold.server); d != "" {
				r.fail("server suite differs from the golden: %s", d)
			}
		case "/v1/sweep?npu=edge":
			if d := diffGolden(string(o.body), e.gold.edge); d != "" {
				r.fail("edge suite differs from the golden: %s", d)
			}
		}
	}
	for _, p := range f.replicas {
		for _, o := range all(p.base, false) {
			r.attempted++
			if o.err != nil || o.status != 200 || o.digest != known[o.req.path].digest {
				r.fail("%s%s: status %d %v, or a body that differs from the router's", p.name, o.req.path, o.status, o.err)
			}
		}
	}
	return known
}

// runServeWarm is serve-warm: every representation cached, then a closed
// loop for the whole run that measures the request rate the fleet
// sustains and the latency its clients see. It is not an open loop: on
// a shared host an open loop at a fixed rate lets the fleet's processes
// fall idle between requests, and waking them then depended so much on
// the host that the p95 of a 300/s loop spread 21-38% over ten runs,
// against 5% for the closed loop's.
func runServeWarm(ctx context.Context, e *env) (*result, error) {
	r := &result{}
	res := warmResources(e.gold.workloads)
	clients := newClients(e.nproc)
	var known map[string]rep
	f, setup, err := setUp(ctx, e, warmSetups, func(f *fleet) { known = fillWarm(ctx, e, f, clients[0], res, r) })
	if err != nil {
		return nil, err
	}
	defer func() {
		if f != nil {
			f.stop() //nolint:errcheck // error path only; the success path checks stop
		}
	}()

	slice := e.seconds / warmSlices
	t0 := time.Now()
	stopCPU := cpuEvery(f.procs(), t0, slice)
	outs := phase{base: f.router.base, next: warmMix(e.seed, 1, res, known), dur: e.seconds}.runFrom(ctx, clients, t0)
	cpus, err := stopCPU()
	if err != nil {
		return nil, err
	}
	rss, err := f.stop()
	f = nil
	if err != nil {
		return nil, err
	}
	checkWarm(r, outs, known)

	var rates, cpuPerOp []float64
	for k, n := range perSlice(outs, slice) {
		if k+1 >= len(cpus) {
			break
		}
		rates = append(rates, float64(n)/slice.Seconds())
		if n > 0 {
			cpuPerOp = append(cpuPerOp, (cpus[k+1]-cpus[k]).Seconds()*1e3/float64(n))
		}
	}
	if len(cpuPerOp) == 0 {
		return nil, fmt.Errorf("serve-warm completed no whole %v slice", slice)
	}

	r.add(summarise("setup_s", "s", median(setup), setup))
	r.add(latencyMetrics(latenciesMS(outs))...)
	r.add(
		summarise("ops_per_s", "1/s", median(rates), rates),
		summarise("cpu_ms_per_op", "ms", median(cpuPerOp), cpuPerOp),
		single("peak_rss_mb", "MB", rss),
	)
	return r, nil
}

// Geometries serve-cold explores: 6 x 5 x 2 x 3 = 180 points for each of
// 6 workloads, 1,080 distinct results. coldGeometry depends on these
// sizes.
var (
	coldRows      = [6]int{16, 24, 32, 40, 48, 64}
	coldSRAM      = [5]string{"256K", "384K", "480K", "640K", "1M"}
	coldChannels  = [2]int{2, 4}
	coldBandwidth = [3]string{"5e9", "10e9", "20e9"}
	coldWorkloads = []string{"rest", "mob", "algo", "goo", "trf", "yolo"}
)

const coldPoints = 180

// coldGeometry returns the k-th geometry workload slot asks for. The
// first 180 are the 180 points of the grid, in an order in which every
// stretch of a few dozen uses each value of each axis about equally
// often, so that no seed's run leans towards the costly or the cheap
// geometries: channels follows k mod 2, bandwidth k mod 3, SRAM k mod 5
// and rows (k/2 mod 2, k/3 mod 3), which by the Chinese remainder
// theorem on (k mod 4, k mod 9, k mod 5) visits every point once per
// 180. The seed permutes each axis's values and where each workload
// starts.
func coldGeometry(seed uint64, slot, k int) string {
	rng := rand.New(rand.NewPCG(seed, 3<<32|uint64(slot)))
	k = (k + rng.IntN(coldPoints)) % coldPoints
	return fmt.Sprintf("rows=%d,sram=%s,channels=%d,bw=%s",
		coldRows[rng.Perm(6)[3*(k/2%2)+k/3%3]], coldSRAM[rng.Perm(5)[k%5]],
		coldChannels[rng.Perm(2)[k%2]], coldBandwidth[rng.Perm(3)[k%3]])
}

// coldRound is how many requests a serve-cold round sends: one new
// result for each workload in turn, then a repeat of one of them.
var coldRound = len(coldWorkloads) + 1

// coldDraw returns the i-th serve-cold request's grid spec and workload,
// a pure function of (seed, i). Every seed asks for the same mix of
// networks and the same share of results already computed (one in
// coldRound), so runs on different seeds do the same kinds of work: in
// round r each workload asks for its r-th geometry, and then workload
// r mod 6 asks for its own again.
func coldDraw(seed uint64, i int) (spec, workload string) {
	round, slot := i/coldRound, i%coldRound
	if slot == len(coldWorkloads) {
		slot = round % len(coldWorkloads)
	}
	return coldGeometry(seed, slot, round), coldWorkloads[slot]
}

func coldRequest(seed uint64) func(int) request {
	return func(i int) request {
		spec, w := coldDraw(seed, i)
		return request{path: "/v1/explore?" + url.Values{"spec": {spec}, "workloads": {w}}.Encode()}
	}
}

// exploreReply is the part of a /v1/explore body the checks read.
type exploreReply struct {
	Frontier []struct {
		Confirmed  bool   `json:"confirmed"`
		ExecCycles uint64 `json:"exec_cycles"`
	} `json:"frontier"`
}

// checkCold fails any explore reply that is not a 200 with a non-empty,
// all-confirmed frontier, or that differs from an earlier reply to the
// same request. It returns each request's frontier execution cycles.
func checkCold(r *result, outs []outcome) []uint64 {
	seen := make(map[string][32]byte)
	cycles := make([]uint64, len(outs))
	for i := range outs {
		o := &outs[i]
		r.attempted++
		if o.err != nil || o.status != 200 {
			r.fail("%s: status %d %v", o.req.path, o.status, o.err)
			continue
		}
		var rep exploreReply
		if err := json.Unmarshal(o.body, &rep); err != nil {
			r.fail("%s: %v", o.req.path, err)
			continue
		}
		if len(rep.Frontier) == 0 {
			r.fail("%s: empty frontier", o.req.path)
			continue
		}
		for _, p := range rep.Frontier {
			if !p.Confirmed || p.ExecCycles == 0 {
				r.fail("%s: unconfirmed frontier point", o.req.path)
				break
			}
			cycles[i] += p.ExecCycles
		}
		if d, ok := seen[o.req.path]; ok && d != o.digest {
			r.fail("%s: reply differs from an earlier one", o.req.path)
		}
		seen[o.req.path] = o.digest
	}
	return cycles
}

// runServeCold is serve-cold: a closed loop of single-point explore
// requests on a fresh cache, most of them for results never computed.
func runServeCold(ctx context.Context, e *env) (*result, error) {
	r := &result{}
	f, setup, err := setUp(ctx, e, coldSetups, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if f != nil {
			f.stop() //nolint:errcheck // error path only; the success path checks stop
		}
	}()
	cpu0, err := cpuOf(f.procs())
	if err != nil {
		return nil, err
	}
	outs := phase{base: f.router.base, next: coldRequest(e.seed), dur: e.seconds, keep: true}.run(ctx, newClients(e.nproc))
	cpu1, err := cpuOf(f.procs())
	if err != nil {
		return nil, err
	}
	rss, err := f.stop()
	f = nil
	if err != nil {
		return nil, err
	}
	checkCold(r, outs)
	if len(outs) == 0 {
		return nil, fmt.Errorf("serve-cold sent no requests")
	}

	r.add(summarise("setup_s", "s", median(setup), setup))
	r.add(latencyMetrics(latenciesMS(outs))...)
	r.add(
		single("ops_per_s", "1/s", float64(len(outs))/phaseWall(outs).Seconds()),
		single("cpu_ms_per_op", "ms", (cpu1-cpu0).Seconds()*1e3/float64(len(outs))),
		single("peak_rss_mb", "MB", rss),
	)
	return r, nil
}
