package seda

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dram"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/scalesim"
)

// protArena recycles protection-overlay storage across every network
// evaluated in this process (see memprot.Arena). Results never escape
// RunNetworkOptsCtx — only aggregated RunResult rows do — so the overlays
// can be released as soon as the DRAM phase has consumed them.
var protArena = memprot.NewArena()

// dramArena shares DRAM scratch state (per-channel span queues, bank
// arrays, window rings) across every simulator in the process: the six
// schemes of a workload and all workloads of a sweep draw from one
// pool, so after the first workload the buffers are grown once and
// only refilled. The geometry check in dram.Arena keeps the sharing
// safe if NPUs with different channel counts are ever mixed in one
// process.
var dramArena = dram.NewArena()

// optBlkCache shares SeDA's per-layer authblock searches across every
// evaluation in the process, keyed by run-set geometry: the server and
// edge NPU sweeps of one seda-sweep or seda-serve process reuse one
// search wherever their layer tilings coincide, and repeated
// evaluations of the same NPU hit outright. Cached results are
// bit-identical to fresh searches, so output never depends on cache
// state.
var optBlkCache = memprot.NewOptBlkCache()

// RunResult is one (NPU, network, scheme) evaluation.
type RunResult struct {
	NPU     string
	Network string
	Scheme  memprot.Scheme

	DataBytes uint64 // baseline tensor traffic
	MetaBytes uint64 // security-metadata + over-fetch traffic

	// NormTraffic is total traffic normalized to the unprotected
	// baseline (Fig. 5's y-axis; baseline = 1.0).
	NormTraffic float64

	ExecCycles uint64
	// NormPerf is baseline execution time divided by this scheme's
	// (Fig. 6's y-axis; baseline = 1.0, protected schemes <= 1).
	NormPerf float64

	// ComputeCycles is the scheme-independent compute time, kept for
	// bound checks.
	ComputeCycles uint64
}

// TrafficOverhead returns NormTraffic - 1.
func (r RunResult) TrafficOverhead() float64 { return r.NormTraffic - 1 }

// PerfOverhead returns the slowdown 1 - NormPerf.
func (r RunResult) PerfOverhead() float64 { return 1 - r.NormPerf }

// RunNetworkOptsCtx evaluates every scheme on one network and returns
// one row per scheme, ordered as Schemes() (baseline last). The six
// schemes' DRAM phases run on their own goroutines. opts selects
// nothing.
//
// The evaluation is built around a shared data spine: the scalesim
// trace is walked once by memprot.ProtectAllArenaCtx, which hands every
// scheme the same read-only data stream plus a per-scheme metadata
// overlay. The DRAM phase then consumes spine+overlay pairs directly,
// with all six schemes drawing their scratch queues from one shared
// arena.
//
// The context reaches the protection walk (checked per layer) and the
// DRAM drain loops (checked every pollCycles of simulated time). A
// cancelled evaluation returns ctx.Err() with no partial rows; an
// uncancellable context (context.Background) adds no measurable work.
func RunNetworkOptsCtx(ctx context.Context, npu NPUConfig, net *model.Network, opts SuiteOptions) ([]RunResult, error) {
	if err := npu.Validate(); err != nil {
		return nil, err
	}
	arr, err := npu.arrayConfig()
	if err != nil {
		return nil, err
	}
	ssp := obs.StartChild(ctx, obs.StageScalesim)
	sim, err := arr.SimulateNetwork(net)
	ssp.End()
	if err != nil {
		return nil, err
	}

	// One pass over each layer's trace covers all schemes. Overlay
	// storage is drawn from a process-wide arena: on a sweep, each
	// workload refills the buffers the previous workload's overlays
	// grew, so the protection phase allocates almost nothing in steady
	// state.
	schemes := Schemes()
	popts := memprot.DefaultOptions()
	popts.OptBlkCache = optBlkCache
	prots, err := memprot.ProtectAllArenaCtx(ctx, schemes, sim, popts, protArena)
	if err != nil {
		return nil, err
	}
	defer protArena.Release(prots)

	// DRAM timing per scheme. Schemes are independent given their
	// overlay streams, so they run concurrently, each owning its DRAM
	// model and all sharing the process-wide scratch arena. Rows land in
	// fixed slots, so scheduling never affects output order.
	rows := make([]RunResult, len(schemes))
	errs := make([]error, len(schemes))
	var wg sync.WaitGroup
	for i := range schemes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows[i], errs[i] = runScheme(ctx, npu, net, sim, prots[i])
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	base, err := SchemeRow(rows, memprot.SchemeBaseline)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].NormTraffic = safeRatio(float64(rows[i].DataBytes+rows[i].MetaBytes), float64(base.DataBytes))
		rows[i].NormPerf = safeRatio(float64(base.ExecCycles), float64(rows[i].ExecCycles))
	}
	return rows, nil
}

func safeRatio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runScheme runs one scheme's protected layers (shared spine plus
// per-scheme overlay) through the DRAM timing model. Execution time is
// the sum over layers of max(compute, memory): the accelerator
// double-buffers, so within a layer compute and DRAM overlap, but
// layer boundaries synchronize.
func runScheme(ctx context.Context, npu NPUConfig, net *model.Network, sim *scalesim.NetworkResult, prot *memprot.Result) (RunResult, error) {
	ctx, span := obs.Start(ctx, obs.StageDRAM)
	span.SetDetail(prot.Scheme.Name())
	defer span.End()
	dsim, err := dram.New(npu.DRAMConfig())
	if err != nil {
		return RunResult{}, err
	}
	dsim.SetArena(dramArena)

	row := RunResult{
		NPU:     npu.Name,
		Network: net.Name,
		Scheme:  prot.Scheme,
	}
	for i := range prot.Layers {
		pl := &prot.Layers[i]
		st, err := dsim.RunOverlayCtx(ctx, pl.Spine, pl.Deltas)
		if err != nil {
			return RunResult{}, err
		}
		compute := sim.Layers[i].ComputeCycles
		layerCycles := st.Cycles
		if compute > layerCycles {
			layerCycles = compute
		}
		row.ExecCycles += layerCycles
		row.ComputeCycles += compute
		row.DataBytes += pl.Overhead.DataBytes
		row.MetaBytes += pl.Overhead.MetaBytes()
	}
	return row, nil
}

// SchemeRow finds the row for a scheme in RunNetworkOptsCtx output.
func SchemeRow(rows []RunResult, s memprot.Scheme) (RunResult, error) {
	for _, r := range rows {
		if r.Scheme == s {
			return r, nil
		}
	}
	return RunResult{}, fmt.Errorf("seda: scheme %s not in rows", s.Name())
}
