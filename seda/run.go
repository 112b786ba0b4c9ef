package seda

import (
	"context"
	"fmt"

	"repro/internal/dram"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/scalesim"
)

// protArena recycles protection-overlay storage across every network
// evaluated in this process (see memprot.Arena). Overlays never escape
// the package: RunNetworkOptsCtx returns only aggregated rows, and a
// WalkSchemeCtx layer is valid only during its callback, so the
// overlays are released as soon as the walk or the DRAM phase has
// consumed them.
var protArena = memprot.NewArena()

// dramArena shares DRAM scratch state (per-channel span queues, bank
// arrays, window rings) across every simulator in the process: the six
// schemes of a workload, all workloads of a sweep and every walk draw
// from one pool, so after the first workload the buffers are grown once
// and only refilled. The geometry check in dram.Arena keeps the sharing
// safe when NPUs with different channel counts are mixed in one
// process.
var dramArena = dram.NewArena()

// optBlkCache shares SeDA's per-layer authblock searches across every
// evaluation in the process, keyed by run-set geometry: the server and
// edge NPU sweeps of one seda-sweep or seda-serve process, and an
// exploration's calibration, surrogate pass and confirmations, reuse
// one search wherever their layer tilings coincide, and repeated
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
// schemes' DRAM phases run in that order on the calling goroutine, and
// the first error returns; concurrency comes from the caller, such as
// the suite's workload pool. opts selects nothing.
//
// The evaluation is built around a shared data spine: the scalesim
// trace is walked once by memprot.ProtectAllArenaCtx, which hands every
// scheme the same read-only data stream plus a per-scheme metadata
// overlay. The DRAM phase then consumes spine+overlay pairs directly,
// each scheme drawing its scratch queues from one shared arena.
//
// The context reaches the protection walk (checked per layer) and the
// DRAM drain loops (checked every pollCycles of simulated time). A
// cancelled evaluation returns ctx.Err() with no partial rows; an
// uncancellable context (context.Background) adds no measurable work.
func RunNetworkOptsCtx(ctx context.Context, npu NPUConfig, net *model.Network, opts SuiteOptions) ([]RunResult, error) {
	schemes := Schemes()
	sim, prots, err := protect(ctx, npu, net, schemes)
	if err != nil {
		return nil, err
	}
	defer protArena.Release(prots)

	// DRAM timing per scheme, one after another on this goroutine: the
	// suite's workload pool is the pipeline's only level of parallelism.
	// Each scheme owns its DRAM model and draws its scratch from the
	// process-wide arena.
	rows := make([]RunResult, len(schemes))
	for i := range schemes {
		if rows[i], err = runScheme(ctx, npu, net, sim, prots[i]); err != nil {
			return nil, err
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

// protect is the first half of every evaluation: it validates npu, runs
// the systolic-array schedule, and walks each layer's trace once for
// all of schemes. Overlays come from protArena — on a sweep each
// workload refills the buffers the previous one grew — and the caller
// hands them back with protArena.Release. A dead context returns
// before the schedule is simulated.
func protect(ctx context.Context, npu NPUConfig, net *model.Network, schemes []memprot.Scheme) (*scalesim.NetworkResult, []*memprot.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := npu.Validate(); err != nil {
		return nil, nil, err
	}
	arr, err := npu.arrayConfig()
	if err != nil {
		return nil, nil, err
	}
	ssp := obs.StartChild(ctx, obs.StageScalesim)
	sim, err := arr.SimulateNetwork(net)
	ssp.End()
	if err != nil {
		return nil, nil, err
	}
	popts := memprot.DefaultOptions()
	popts.OptBlkCache = optBlkCache
	prots, err := memprot.ProtectAllArenaCtx(ctx, schemes, sim, popts, protArena)
	if err != nil {
		return nil, nil, err
	}
	return sim, prots, nil
}

// drainLayers runs one scheme's protected layers (shared spine plus
// per-scheme overlay), in order, through npu's DRAM timing model with
// its scratch drawn from the process-wide arena, and hands fn each
// layer's index and drained cycles.
func drainLayers(ctx context.Context, npu NPUConfig, prot *memprot.Result, fn func(i int, cycles uint64)) error {
	ctx, span := obs.Start(ctx, obs.StageDRAM)
	span.SetDetail(prot.Scheme.Name())
	defer span.End()
	dsim, err := dram.New(npu.DRAMConfig())
	if err != nil {
		return err
	}
	dsim.SetArena(dramArena)
	for i := range prot.Layers {
		pl := &prot.Layers[i]
		st, err := dsim.RunOverlayCtx(ctx, pl.Spine, pl.Deltas)
		if err != nil {
			return err
		}
		fn(i, st.Cycles)
	}
	return nil
}

// runScheme drains one scheme's protected layers into its row.
// Execution time is the sum over layers of max(compute, memory): the
// accelerator double-buffers, so within a layer compute and DRAM
// overlap, but layer boundaries synchronize.
func runScheme(ctx context.Context, npu NPUConfig, net *model.Network, sim *scalesim.NetworkResult, prot *memprot.Result) (RunResult, error) {
	row := RunResult{
		NPU:     npu.Name,
		Network: net.Name,
		Scheme:  prot.Scheme,
	}
	err := drainLayers(ctx, npu, prot, func(i int, cycles uint64) {
		pl := &prot.Layers[i]
		compute := sim.Layers[i].ComputeCycles
		row.ExecCycles += max(compute, cycles)
		row.ComputeCycles += compute
		row.DataBytes += pl.Overhead.DataBytes
		row.MetaBytes += pl.Overhead.MetaBytes()
	})
	if err != nil {
		return RunResult{}, err
	}
	return row, nil
}

// Layer is one layer of a WalkSchemeCtx walk.
type Layer struct {
	// Sim is the layer's systolic-array schedule, including its
	// scheme-independent compute cycles.
	Sim *scalesim.LayerResult

	// Prot is the layer's protected stream (the shared data spine plus
	// the scheme's metadata overlay) and traffic breakdown. Its storage
	// returns to the process-wide arena when the walk ends, so it is
	// valid only during the callback.
	Prot *memprot.ProtectedLayer

	// DRAMCycles is the layer's drained DRAM time, set only when the
	// walk drains.
	DRAMCycles uint64
}

// WalkSchemeCtx evaluates one scheme on one network through the same
// protect step, drain loop and process-wide scratch as
// RunNetworkOptsCtx, handing fn each layer in order; with drain, each
// layer is drained through npu's DRAM model before its callback. It is
// the uncached single-scheme measurement: the layers' sums of
// max(compute, DRAMCycles) and overheads are exactly the scheme's
// RunNetworkOptsCtx row (TestWalkSchemeMatchesSuiteRows). The walk
// releases its overlays before it returns.
func WalkSchemeCtx(ctx context.Context, npu NPUConfig, net *model.Network, scheme memprot.Scheme, drain bool, fn func(Layer)) error {
	sim, prots, err := protect(ctx, npu, net, []memprot.Scheme{scheme})
	if err != nil {
		return err
	}
	defer protArena.Release(prots)
	prot := prots[0]
	layer := func(i int, cycles uint64) {
		fn(Layer{Sim: &sim.Layers[i], Prot: &prot.Layers[i], DRAMCycles: cycles})
	}
	if drain {
		return drainLayers(ctx, npu, prot, layer)
	}
	for i := range prot.Layers {
		layer(i, 0)
	}
	return nil
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
