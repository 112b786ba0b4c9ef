// Package explore is the design-space-exploration engine over the
// parametric platform space seda.NPUConfig opens: it enumerates a grid
// spec's cartesian product, prices every point with a calibrated
// analytic DRAM surrogate (no cycle-accurate scheduling), and confirms
// through the full cycle-accurate pipeline only the points no earlier
// confirmation proves dominated. A confirmation evaluates just the
// explored scheme and Baseline, through the standard result cache
// under that scheme subset's key, so a later exploration of the same
// point under the same scheme hits its confirmation.
//
// Calibration and the surrogate pass walk one scheme through seda
// (seda.WalkSchemeCtx) and so share seda's process-wide scratch with
// the confirmations: one DRAM state pool and one authblock memo.
//
// Pruning follows one rule (see confirmWalk): points are visited by
// (cost, lower bound) ascending, and a point is skipped only when a
// confirmed measurement of a cheaper (or equal-cost, strictly faster)
// point is no slower than the point's lower bound. As long as each
// lower bound holds, the confirmed frontier equals the frontier an
// exhaustive cycle-accurate sweep of the whole grid would report —
// TestExploreRetainsTrueFrontier and TestExploreLowerBoundHolds check
// exactly that against exhaustively evaluated grids.
package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/seda"
)

// ErrUsage marks Run failures caused by the caller's request — the
// spec or workload selection — rather than by the evaluation pipeline.
// Servers map it to a 400-class response.
var ErrUsage = errors.New("invalid exploration request")

// DefaultMaxPoints bounds a grid when the caller does not: a guard
// against accidental combinatorial explosions, not a resource budget
// (surrogate evaluation is microseconds per point).
const DefaultMaxPoints = 8192

// DefaultMargin floors the pruning margin, max(2 x fitted max relative
// error, DefaultMargin): the calibration error is measured in-sample on
// the calibration configs, and grid points sit elsewhere in the space,
// so the margin never drops below this even when the fit is tighter.
const DefaultMargin = 0.10

// Options configures an exploration.
type Options struct {
	// Workloads to evaluate; both the surrogate objective and the
	// confirmation sum execution cycles across them.
	Workloads []*model.Network

	// Scheme under which every point is protected (the surrogate prices
	// scheme-transformed traffic, not raw tensors).
	Scheme memprot.Scheme

	// Cache backs the cycle-accurate confirmations (nil = uncached).
	Cache *rescache.Cache

	// MaxPoints rejects grids larger than this (0 = DefaultMaxPoints).
	MaxPoints int

	// SkipConfirm stops after the surrogate pass: no point is confirmed
	// and the frontier is computed from estimates. For interactive
	// triage; tests and CI confirm.
	SkipConfirm bool
}

// Point is one grid point's outcome.
type Point struct {
	Config seda.NPUConfig

	// Cost is the hardware cost proxy (see CostProxy).
	Cost float64

	// SurrogateCycles is the analytic execution estimate summed over
	// the workloads.
	SurrogateCycles float64

	// Confirmed marks points evaluated cycle-accurately. ExecCycles is
	// their measured execution total (0 when unconfirmed).
	Confirmed  bool
	ExecCycles uint64

	// Frontier marks the confirmed Pareto-optimal points.
	Frontier bool
}

// Result is a completed exploration.
type Result struct {
	Spec        string // canonical form
	Scheme      memprot.Scheme
	Workloads   []string
	Base        string // base config name the grid was built over
	Margin      float64
	Calibration Calibration

	// Points in canonical enumeration order, invalid geometries
	// excluded (counted in Invalid).
	Points  []Point
	Invalid int

	// Frontier indexes Points, cost-ascending.
	Frontier []int
}

// Confirmed counts the points evaluated cycle-accurately.
func (r *Result) Confirmed() int {
	n := 0
	for i := range r.Points {
		if r.Points[i].Confirmed {
			n++
		}
	}
	return n
}

// CostProxy is the hardware-cost objective explored against: a unitless
// aggregate of the resources a platform spends — PEs, on-chip SRAM, and
// memory-system provisioning (channels and bandwidth). The weights make
// the Table II presets land where intuition puts them (the server NPU
// about 40x the edge NPU); the exploration only ever compares costs, so
// any fixed monotone weighting yields the same frontiers.
func CostProxy(c seda.NPUConfig) float64 {
	return float64(c.ArrayRows*c.ArrayCols) +
		float64(c.SRAMBytes)/1024 +
		2048*float64(c.Channels) +
		512*c.BandwidthB/1e9
}

// Run explores a grid spec over a base configuration.
func Run(ctx context.Context, spec *Spec, base seda.NPUConfig, opts Options) (*Result, error) {
	if len(opts.Workloads) == 0 {
		return nil, fmt.Errorf("explore: no workloads: %w", ErrUsage)
	}
	maxPoints := opts.MaxPoints
	if maxPoints <= 0 {
		maxPoints = DefaultMaxPoints
	}
	if n := spec.NumPoints(); n > maxPoints {
		return nil, fmt.Errorf("explore: grid has %d points, limit %d (narrow the spec or raise the limit): %w", n, maxPoints, ErrUsage)
	}

	res := &Result{
		Spec:   spec.Canonical(),
		Scheme: opts.Scheme,
		Base:   base.Name,
	}
	for _, net := range opts.Workloads {
		res.Workloads = append(res.Workloads, net.Name)
	}

	// Partition the grid: invalid geometries (a cross product can build
	// some) are counted and dropped, the rest explored. Validation is
	// the first per-point work, so honor cancellation here too — a
	// request timeout must not wait for the surrogate pass to notice.
	for i, cfg := range spec.Points(base) {
		if i&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if cfg.Validate() != nil {
			res.Invalid++
			continue
		}
		res.Points = append(res.Points, Point{Config: cfg, Cost: CostProxy(cfg)})
	}
	if len(res.Points) == 0 {
		return nil, fmt.Errorf("explore: no valid points in grid %q over base %q: %w", res.Spec, base.Name, ErrUsage)
	}

	// Fit the surrogate against cycle-accurate measurements of the
	// calibration platforms, then derive the pruning margin from the
	// fit's worst relative error.
	calCtx, calSpan := obs.Start(ctx, obs.StageCalibrate)
	cal, err := Calibrate(calCtx, seda.NPUPresets(), opts.Workloads, opts.Scheme)
	calSpan.End()
	if err != nil {
		return nil, err
	}
	res.Calibration = cal
	res.Margin = math.Max(2*cal.MaxRelErr, DefaultMargin)

	surCtx, surSpan := obs.Start(ctx, obs.StageSurrogate)
	lower, err := surrogatePass(surCtx, res, opts, cal.Model, res.Margin)
	surSpan.End()
	if err != nil {
		return nil, err
	}

	if opts.SkipConfirm {
		all := make([]int, len(res.Points))
		for i := range all {
			all[i] = i
		}
		res.Frontier = frontierOf(res.Points, all, false)
		return res, nil
	}

	// Confirm cycle-accurately through the standard cached pipeline,
	// evaluating only the explored scheme and the Baseline its rows are
	// normalised against. Each confirmation is cached under that scheme
	// subset, so a later exploration of the same point under the same
	// scheme hits its rows; a sweep or another scheme does not.
	ctx, confirmSpan := obs.Start(ctx, obs.StageConfirm)
	defer confirmSpan.End()
	cost := make([]float64, len(res.Points))
	for i := range res.Points {
		cost[i] = res.Points[i].Cost
	}
	schemes := confirmSchemes(opts.Scheme)
	confirmed, err := confirmWalk(cost, lower, func(p int) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		suite, err := seda.RunSuiteCachedCtx(ctx, opts.Cache, res.Points[p].Config, opts.Workloads, schemes)
		if err != nil {
			return 0, fmt.Errorf("explore: confirming %s: %w", res.Points[p].Config.Name, err)
		}
		var exec uint64
		for _, net := range opts.Workloads {
			row, err := seda.SchemeRow(suite.Rows[net.Name], opts.Scheme)
			if err != nil {
				return 0, err
			}
			exec += row.ExecCycles
		}
		res.Points[p].Confirmed = true
		res.Points[p].ExecCycles = exec
		return float64(exec), nil
	})
	if err != nil {
		return nil, err
	}
	res.Frontier = frontierOf(res.Points, confirmed, true)
	return res, nil
}

// confirmSchemes is the scheme subset a confirmation evaluates: the
// explored scheme and Baseline, in seda.Schemes() order (Baseline is
// last), or Baseline alone when it is the explored scheme.
func confirmSchemes(s memprot.Scheme) []memprot.Scheme {
	if s == memprot.SchemeBaseline {
		return []memprot.Scheme{s}
	}
	return []memprot.Scheme{s, memprot.SchemeBaseline}
}

// surrogatePass prices every point analytically, returning each
// point's exec-cycle lower bound (see Model.execLowerBound). Points
// sharing an array geometry (rows, cols, SRAM) share one seda walk per
// workload, made with the group's first point — the summaries are
// DRAM-geometry independent — so a grid sweeping only memory knobs
// summarizes each workload exactly once.
func surrogatePass(ctx context.Context, res *Result, opts Options, m Model, margin float64) (lower []float64, err error) {
	type arrayKey struct{ rows, cols, sram int }
	groups := make(map[arrayKey][]int)
	var order []arrayKey
	for i := range res.Points {
		c := res.Points[i].Config
		k := arrayKey{c.ArrayRows, c.ArrayCols, c.SRAMBytes}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}

	lower = make([]float64, len(res.Points))
	for _, k := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		npu := res.Points[groups[k][0]].Config
		summaries := make([]*workloadSummary, len(opts.Workloads))
		for wi, net := range opts.Workloads {
			ws, err := summarizeWorkload(ctx, npu, net, opts.Scheme)
			if err != nil {
				return nil, err
			}
			summaries[wi] = ws
		}
		for _, pi := range groups[k] {
			d := res.Points[pi].Config.DRAMConfig()
			for _, ws := range summaries {
				layers := make([]layerTerms, len(ws.layers))
				for li := range ws.layers {
					layers[li] = terms(&ws.layers[li], d)
				}
				res.Points[pi].SurrogateCycles += m.execEstimate(layers)
				lower[pi] += m.execLowerBound(layers, margin)
			}
		}
	}
	return lower, nil
}

// frontierOf computes the frontier over the given points, using
// confirmed cycles or estimates, and returns the point indices
// cost-ascending.
func frontierOf(points []Point, among []int, confirmed bool) []int {
	cost := make([]float64, len(among))
	cycles := make([]float64, len(among))
	for j, i := range among {
		cost[j] = points[i].Cost
		if confirmed {
			cycles[j] = float64(points[i].ExecCycles)
		} else {
			cycles[j] = points[i].SurrogateCycles
		}
	}
	var out []int
	for _, j := range frontier(cost, cycles) {
		out = append(out, among[j])
		points[among[j]].Frontier = true
	}
	sort.Slice(out, func(a, b int) bool {
		if points[out[a]].Cost != points[out[b]].Cost {
			return points[out[a]].Cost < points[out[b]].Cost
		}
		return out[a] < out[b]
	})
	return out
}
