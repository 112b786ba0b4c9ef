package explore

import (
	"context"
	"math"

	"repro/internal/dram"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/scalesim"
	"repro/internal/trace"
	"repro/seda"
)

// SurrogateVersion tags the analytic-model formula and its calibration
// procedure. It feeds the serving layer's ETag: bump it whenever the
// estimate for a fixed (config, workload) can change, so stale cached
// explore responses are not revalidated.
const SurrogateVersion = "2"

// The surrogate predicts a layer's DRAM drain time from three closed-
// form quantities the cycle-accurate scheduler also sees, without
// running the scheduler:
//
//	base  — per-channel burst count × max(TBurst, TCL): the time the
//	        busiest resource (bus or bank CAS pipeline) needs for the
//	        data alone, i.e. the row-hit streaming floor.
//	act   — per-channel span-queue entries × (TRP + TRCD): every entry
//	        is a potential row activation, so this is the worst-case
//	        row-management time. The fitted weight alpha is
//	        effectively (1 - row-hit rate) folded with how much of the
//	        activation latency the FR-FCFS window hides.
//	issue — the last request's issue cycle plus one request's full
//	        latency: a drain can never finish before its input stops
//	        arriving (compute-bound layers trickle requests out slowly).
//
// Both base and act are inflated by TRefi/(TRefi-TRfc), the fraction
// of time the banks are not refreshing. The estimate is
//
//	mem ≈ max(beta·base + alpha·act, issue)
//
// with (alpha, beta) fitted once per explore against cycle-accurate
// measurements of the calibration configs (Calibrate), and the fit's
// maximum relative error is reported and sets the pruning margin.

// Model is the calibrated analytic DRAM surrogate.
type Model struct {
	Alpha float64 // weight of the row-activation term
	Beta  float64 // weight of the burst-service term
}

// layerTerms are the per-layer inputs to the estimate under one DRAM
// geometry (already refresh-inflated; in accelerator cycles).
type layerTerms struct {
	base    float64
	act     float64
	issue   float64
	compute float64
}

// estimate returns the predicted DRAM cycles of one layer.
func (m Model) estimate(t layerTerms) float64 {
	return math.Max(m.Beta*t.base+m.Alpha*t.act, t.issue)
}

// execEstimate returns predicted end-to-end execution cycles: the sum
// over layers of max(compute, memory), mirroring seda's runScheme.
func (m Model) execEstimate(layers []layerTerms) float64 {
	var sum float64
	for _, t := range layers {
		sum += math.Max(t.compute, m.estimate(t))
	}
	return sum
}

// execLowerBound returns the exec-cycle lower bound the pruning
// trusts: the memory term of every layer may overestimate by the
// margin, while the compute term is simulated rather than estimated and
// so carries none. A layer pinned at its compute floor contributes its
// exact value, which is what lets the confirmation walk collapse
// compute-saturated plateaus.
func (m Model) execLowerBound(layers []layerTerms, margin float64) float64 {
	var lo float64
	for _, t := range layers {
		lo += math.Max(t.compute, m.estimate(t)/(1+margin))
	}
	return lo
}

// memEstimate returns predicted total DRAM cycles (calibration target).
func (m Model) memEstimate(layers []layerTerms) float64 {
	var sum float64
	for _, t := range layers {
		sum += m.estimate(t)
	}
	return sum
}

// byteRun is a maximal contiguous stretch of the merged spine+overlay
// stream: the DRAM-geometry-independent form of a layer's traffic.
type byteRun struct {
	addr  uint64
	bytes uint64
}

// layerSummary is one protected layer reduced to what the surrogate
// needs: its contiguous byte runs, the last issue cycle, and the
// scheme-independent compute time.
type layerSummary struct {
	runs      []byteRun
	lastIssue uint64
	compute   uint64
}

// workloadSummary is a workload's layers summarized for one
// (array geometry, scheme). It is DRAM-geometry independent, so one
// summary prices every memory system in a grid.
type workloadSummary struct {
	workload string
	layers   []layerSummary
}

// Shared scratch state, mirroring seda/run.go: summaries and
// calibration runs in one process reuse overlay storage, DRAM scratch
// queues and SeDA's authblock searches.
var (
	protArena   = memprot.NewArena()
	dramArena   = dram.NewArena()
	optBlkCache = memprot.NewOptBlkCache()
)

// summarizeWorkload runs the compute simulator and the protection walk
// once and folds each layer's merged access stream into byte runs.
func summarizeWorkload(ctx context.Context, arr *scalesim.Config, net *model.Network, scheme memprot.Scheme) (*workloadSummary, error) {
	sim, err := arr.SimulateNetwork(net)
	if err != nil {
		return nil, err
	}
	popts := memprot.DefaultOptions()
	popts.OptBlkCache = optBlkCache
	prots, err := memprot.ProtectAllArenaCtx(ctx, []memprot.Scheme{scheme}, sim, popts, protArena)
	if err != nil {
		return nil, err
	}
	defer protArena.Release(prots)

	ws := &workloadSummary{workload: net.Name}
	ws.layers = make([]layerSummary, len(prots[0].Layers))
	for i := range prots[0].Layers {
		pl := &prots[0].Layers[i]
		ls := &ws.layers[i]
		ls.compute = sim.Layers[i].ComputeCycles
		collectRuns(pl, ls)
	}
	return ws, nil
}

// collectRuns walks the merged spine+overlay stream in issue order and
// merges byte-contiguous accesses into runs. A run break is an address
// discontinuity — which is exactly where the burst-interleaved mapping
// can change row, i.e. where the cycle-accurate scheduler can pay an
// activation.
func collectRuns(pl *memprot.ProtectedLayer, ls *layerSummary) {
	trace.ForEachMerged(pl.Spine, pl.Deltas, func(a *trace.Access) {
		if a.Cycle > ls.lastIssue {
			ls.lastIssue = a.Cycle
		}
		if n := len(ls.runs); n > 0 && ls.runs[n-1].addr+ls.runs[n-1].bytes == a.Addr {
			ls.runs[n-1].bytes += uint64(a.Bytes)
		} else {
			ls.runs = append(ls.runs, byteRun{addr: a.Addr, bytes: uint64(a.Bytes)})
		}
	})
}

// terms prices a summarized layer under one DRAM geometry.
func terms(ls *layerSummary, d dram.Config) layerTerms {
	bb := uint64(d.BurstBytes)
	chans := uint64(d.Channels)
	// One span window is channels × burstsPerRow consecutive global
	// bursts: the stretch over which a contiguous run keeps (bank, row)
	// constant on every channel.
	window := chans * uint64(d.RowBytes) / bb

	var bursts, entries uint64
	for _, r := range ls.runs {
		b0 := r.addr / bb
		n := (r.addr+r.bytes-1)/bb - b0 + 1
		bursts += n
		w0, w1 := b0/window, (b0+n-1)/window
		if w0 == w1 {
			entries += min(n, chans)
		} else {
			first := (w0+1)*window - b0
			last := b0 + n - w1*window
			entries += min(first, chans) + min(last, chans) + (w1-w0-1)*chans
		}
	}

	refresh := 1.0
	if d.TRefi > d.TRfc {
		refresh = float64(d.TRefi) / float64(d.TRefi-d.TRfc)
	}
	perBurst := float64(max(d.TBurst, d.TCL))
	t := layerTerms{
		base:    float64(bursts) / float64(chans) * perBurst * refresh,
		act:     float64(entries) / float64(chans) * float64(d.TRP+d.TRCD) * refresh,
		compute: float64(ls.compute),
	}
	if len(ls.runs) > 0 {
		t.issue = float64(ls.lastIssue + d.TRCD + d.TCL + d.TBurst)
	}
	return t
}

// CalPoint is one calibration measurement: a (config, workload) pair's
// cycle-accurate DRAM total against the fitted model's prediction.
type CalPoint struct {
	NPU      string  `json:"npu"`
	Workload string  `json:"workload"`
	Actual   float64 `json:"actual_cycles"`
	Est      float64 `json:"est_cycles"`
	RelErr   float64 `json:"rel_err"`
}

// Calibration is a fitted surrogate plus the evidence for its margin.
type Calibration struct {
	Model
	MaxRelErr float64
	Points    []CalPoint
}

// calSample keeps a calibration point's layer terms so the fit can
// re-price it for every candidate (alpha, beta) without re-walking.
type calSample struct {
	npu      string
	workload string
	layers   []layerTerms
	actual   float64
}

// Calibrate fits the surrogate against the cycle-accurate scheduler:
// every (config, workload) pair is summarized and drained for real,
// then (alpha, beta) are chosen by a deterministic coarse-to-fine grid
// search minimizing the maximum relative error of total DRAM cycles.
func Calibrate(ctx context.Context, cfgs []seda.NPUConfig, nets []*model.Network, scheme memprot.Scheme) (Calibration, error) {
	var samples []calSample
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return Calibration{}, err
		}
		arr, err := scalesim.New(cfg.ArrayRows, cfg.ArrayCols, cfg.SRAMBytes)
		if err != nil {
			return Calibration{}, err
		}
		d := cfg.DRAMConfig()
		dsim, err := dram.New(d)
		if err != nil {
			return Calibration{}, err
		}
		dsim.SetArena(dramArena)
		for _, net := range nets {
			if err := ctx.Err(); err != nil {
				return Calibration{}, err
			}
			s, err := calibrateOne(ctx, arr, dsim, d, cfg.Name, net, scheme)
			if err != nil {
				return Calibration{}, err
			}
			samples = append(samples, s)
		}
	}
	return fit(samples), nil
}

// calibrateOne measures one (config, workload): it protects the
// workload once and, per layer, both summarizes the stream and drains
// it through the cycle-accurate scheduler.
func calibrateOne(ctx context.Context, arr *scalesim.Config, dsim *dram.Simulator, d dram.Config, npuName string, net *model.Network, scheme memprot.Scheme) (calSample, error) {
	sim, err := arr.SimulateNetwork(net)
	if err != nil {
		return calSample{}, err
	}
	popts := memprot.DefaultOptions()
	popts.OptBlkCache = optBlkCache
	prots, err := memprot.ProtectAllArenaCtx(ctx, []memprot.Scheme{scheme}, sim, popts, protArena)
	if err != nil {
		return calSample{}, err
	}
	defer protArena.Release(prots)

	s := calSample{npu: npuName, workload: net.Name}
	for i := range prots[0].Layers {
		pl := &prots[0].Layers[i]
		var ls layerSummary
		ls.compute = sim.Layers[i].ComputeCycles
		collectRuns(pl, &ls)
		s.layers = append(s.layers, terms(&ls, d))

		st, err := dsim.RunOverlayCtx(ctx, pl.Spine, pl.Deltas)
		if err != nil {
			return calSample{}, err
		}
		s.actual += float64(st.Cycles)
	}
	return s, nil
}

// fit runs the deterministic coarse-to-fine grid search. The objective
// is the maximum relative error over all samples — the quantity the
// pruning margin must bound — and ties break toward the first
// (smallest beta, then alpha) candidate, so the fit has no run-to-run
// wobble for the caching layers above to see.
func fit(samples []calSample) Calibration {
	best := Model{Alpha: 1, Beta: 1}
	bestErr := math.Inf(1)
	eval := func(m Model) {
		worst := 0.0
		for _, s := range samples {
			if s.actual <= 0 {
				continue
			}
			e := math.Abs(m.memEstimate(s.layers)-s.actual) / s.actual
			if e > worst {
				worst = e
			}
		}
		if worst < bestErr {
			bestErr, best = worst, m
		}
	}

	// Coarse pass over a generous box, then two refinements around the
	// incumbent with a 5x finer step each time.
	loA, hiA, stepA := 0.0, 3.0, 0.05
	loB, hiB, stepB := 0.25, 3.0, 0.05
	for pass := 0; pass < 3; pass++ {
		for b := loB; b <= hiB+1e-12; b += stepB {
			for a := loA; a <= hiA+1e-12; a += stepA {
				eval(Model{Alpha: a, Beta: b})
			}
		}
		loA, hiA, stepA = math.Max(0, best.Alpha-stepA), best.Alpha+stepA, stepA/5
		loB, hiB, stepB = math.Max(0, best.Beta-stepB), best.Beta+stepB, stepB/5
	}

	cal := Calibration{Model: best, MaxRelErr: bestErr}
	for _, s := range samples {
		est := best.memEstimate(s.layers)
		p := CalPoint{NPU: s.npu, Workload: s.workload, Actual: s.actual, Est: est}
		if s.actual > 0 {
			p.RelErr = math.Abs(est-s.actual) / s.actual
		}
		cal.Points = append(cal.Points, p)
	}
	return cal
}
