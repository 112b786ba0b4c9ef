package seda

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/dram"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/scalesim"
	"repro/internal/trace"
)

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
// one row per scheme, ordered as Schemes() (baseline last). The
// network is scheduled once; then each scheme in turn is protected and
// drained through npu's DRAM model one layer at a time on the calling
// goroutine, so only one layer's overlay is live at a time, and the
// first error returns. Concurrency comes from the caller, such as the
// suite's workload pool. opts selects nothing.
//
// Every scheme is walked off a shared data spine: the scalesim trace
// is never copied, and memprot.WalkCtx adds only a per-layer metadata
// overlay. The DRAM phase consumes spine+overlay pairs directly,
// drawing its scratch queues from one shared arena. Execution time is
// the sum over layers of max(compute, memory): the accelerator
// double-buffers, so within a layer compute and DRAM overlap, but
// layer boundaries synchronize.
//
// The context reaches the protection walk (checked per layer) and the
// DRAM drain loops (checked every pollCycles of simulated time). A
// cancelled evaluation returns ctx.Err() with no partial rows; an
// uncancellable context (context.Background) adds no measurable work.
func RunNetworkOptsCtx(ctx context.Context, npu NPUConfig, net *model.Network, opts SuiteOptions) ([]RunResult, error) {
	return runNetwork(ctx, npu, net, Schemes())
}

// runNetwork is RunNetworkOptsCtx over a scheme subset that
// checkSchemes accepts: one row per scheme in the given order. Each
// row depends only on its own scheme and Baseline, so a subset's rows
// equal the six-scheme rows restricted to it
// (TestSchemeSubsetRowsMatchSuiteRows).
func runNetwork(ctx context.Context, npu NPUConfig, net *model.Network, schemes []memprot.Scheme) ([]RunResult, error) {
	rows := make([]RunResult, len(schemes))
	for k, s := range schemes {
		rows[k] = RunResult{NPU: npu.Name, Network: net.Name, Scheme: s}
	}
	err := walk(ctx, npu, net, schemes, true, func(k int, l Layer) {
		row := &rows[k]
		compute := l.Sim.ComputeCycles
		row.ExecCycles += max(compute, l.DRAMCycles)
		row.ComputeCycles += compute
		row.DataBytes += l.Prot.Overhead.DataBytes
		row.MetaBytes += l.Prot.Overhead.MetaBytes()
	})
	if err != nil {
		return nil, err
	}

	if err := normalize(rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// checkSchemes accepts a scheme subset for the cached entry point: a
// subsequence of Schemes() that contains Baseline. Baseline keeps the
// rows normalised exactly as in the full set, and the plot order keeps
// the subset's fingerprint a function of the set alone.
func checkSchemes(schemes []memprot.Scheme) error {
	all := Schemes()
	j := 0
	for _, s := range schemes {
		for j < len(all) && all[j] != s {
			j++
		}
		if j == len(all) {
			return fmt.Errorf("seda: scheme %s is unknown, repeated or out of Schemes() order", s.Name())
		}
		j++
	}
	if !slices.Contains(schemes, memprot.SchemeBaseline) {
		return errors.New("seda: scheme set lacks Baseline")
	}
	return nil
}

// normalize sets every row's NormTraffic and NormPerf against the
// baseline row's traffic and execution time.
func normalize(rows []RunResult) error {
	base, err := SchemeRow(rows, memprot.SchemeBaseline)
	if err != nil {
		return err
	}
	for i := range rows {
		rows[i].NormTraffic = safeRatio(float64(rows[i].DataBytes+rows[i].MetaBytes), float64(base.DataBytes))
		rows[i].NormPerf = safeRatio(float64(base.ExecCycles), float64(rows[i].ExecCycles))
	}
	return nil
}

func safeRatio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Layer is one layer of a WalkSchemeCtx walk.
type Layer struct {
	// Sim is the layer's systolic-array schedule, including its
	// scheme-independent compute cycles.
	Sim *scalesim.LayerResult

	// Prot is the layer's protected stream (the shared data spine plus
	// the scheme's metadata overlay) and traffic breakdown. The walk
	// reuses its overlay for the next layer, so it is valid only
	// during the callback.
	Prot *memprot.ProtectedLayer

	// DRAMCycles is the layer's drained DRAM time, set only when the
	// walk drains.
	DRAMCycles uint64
}

// WalkSchemeCtx evaluates one scheme on one network through the same
// loop and process-wide scratch as RunNetworkOptsCtx, handing fn each
// layer in order; with drain, each layer is drained through npu's DRAM
// model before its callback. It is the uncached single-scheme
// measurement: the layers' sums of max(compute, DRAMCycles) and
// overheads are exactly the scheme's RunNetworkOptsCtx row
// (TestWalkSchemeMatchesSuiteRows).
func WalkSchemeCtx(ctx context.Context, npu NPUConfig, net *model.Network, scheme memprot.Scheme, drain bool, fn func(Layer)) error {
	return walk(ctx, npu, net, []memprot.Scheme{scheme}, drain, func(_ int, l Layer) { fn(l) })
}

// walk is every evaluation's one loop: it validates npu, runs the
// systolic-array schedule once, then for each scheme in order and each
// layer in turn protects the layer into one overlay (reset per layer
// and shared by all of the call's schemes), optionally drains it
// through npu's DRAM model with its scratch drawn from dramArena, and
// hands fn the scheme's index and the layer. A dead context returns
// before the schedule is simulated.
func walk(ctx context.Context, npu NPUConfig, net *model.Network, schemes []memprot.Scheme, drain bool, fn func(k int, l Layer)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := npu.Validate(); err != nil {
		return err
	}
	arr, err := npu.arrayConfig()
	if err != nil {
		return err
	}
	ssp := obs.StartChild(ctx, obs.StageScalesim)
	sim, err := arr.SimulateNetwork(net)
	ssp.End()
	if err != nil {
		return err
	}
	popts := memprot.DefaultOptions()
	popts.OptBlkCache = optBlkCache
	ov := &trace.Overlay{}
	next := func() *trace.Overlay {
		ov.Reset()
		return ov
	}
	for k, s := range schemes {
		if err := walkScheme(ctx, npu, sim, s, popts, next, drain, func(l Layer) { fn(k, l) }); err != nil {
			return err
		}
	}
	return nil
}

// walkScheme protects and, with drain, drains one scheme's layers in
// turn under a scheme span named for it.
func walkScheme(ctx context.Context, npu NPUConfig, sim *scalesim.NetworkResult, s memprot.Scheme, popts memprot.Options, next func() *trace.Overlay, drain bool, fn func(Layer)) error {
	ctx, span := obs.Start(ctx, obs.StageScheme)
	defer span.End()
	if span != nil { // Name formats: untraced walks skip it
		span.SetDetail(s.Name())
	}
	var dsim *dram.Simulator
	if drain {
		var err error
		if dsim, err = dram.New(npu.DRAMConfig()); err != nil {
			return err
		}
		dsim.SetArena(dramArena)
	}
	i := 0
	return memprot.WalkCtx(ctx, s, sim, popts, next, func(pl *memprot.ProtectedLayer) error {
		l := Layer{Sim: &sim.Layers[i], Prot: pl}
		i++
		if dsim != nil {
			st, err := dsim.RunOverlayCtx(ctx, pl.Spine, pl.Deltas)
			if err != nil {
				return err
			}
			l.DRAMCycles = st.Cycles
		}
		fn(l)
		return nil
	})
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
