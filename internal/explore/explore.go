// Package explore is the design-space-exploration engine over the
// parametric platform space seda.NPUConfig opens: it enumerates a grid
// spec's cartesian product, prices every point with a calibrated
// analytic DRAM surrogate (no cycle-accurate scheduling), prunes the
// points the surrogate proves dominated under its measured error
// margin, and confirms only the surviving Pareto candidates through
// the full cycle-accurate pipeline — reusing the standard result cache,
// so confirmed points are cached under the same fingerprints a direct
// /v1/sweep of that geometry would hit.
//
// Pruning happens twice and is conservative by construction: a static
// interval pass (see pruneWithBounds) drops points some cheaper point
// beats across the whole error band, and confirmation then walks the
// survivors cost-ascending, replacing each interval with its exact
// measurement — which prunes remaining candidates harder than any
// interval could. As long as the surrogate's memory-term error stays
// within the margin, the confirmed frontier equals the frontier an
// exhaustive cycle-accurate sweep of the whole grid would report —
// TestExploreRetainsTrueFrontier checks exactly that against an
// exhaustively evaluated grid.
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
	"repro/internal/scalesim"
	"repro/seda"
)

// ErrUsage marks Run failures caused by the caller's request — the
// spec, margin, or workload selection — rather than by the evaluation
// pipeline. Servers map it to a 400-class response.
var ErrUsage = errors.New("invalid exploration request")

// DefaultMaxPoints bounds a grid when the caller does not: a guard
// against accidental combinatorial explosions, not a resource budget
// (surrogate evaluation is microseconds per point).
const DefaultMaxPoints = 8192

// DefaultMargin floors the pruning margin: the calibration error is
// measured in-sample on the calibration configs, and grid points sit
// elsewhere in the space, so the margin never drops below this even
// when the fit is tighter.
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

	// Suite controls the confirmation runs' execution (worker pool etc).
	Suite seda.SuiteOptions

	// Margin overrides the pruning margin — the relative error band
	// granted to the surrogate's per-layer memory term (compute is
	// simulated exactly and carries none). 0 derives it from the
	// calibration: max(2 x fitted max relative error, DefaultMargin).
	Margin float64

	// MaxPoints rejects grids larger than this (0 = DefaultMaxPoints).
	MaxPoints int

	// SkipConfirm stops after the surrogate pass: candidates are
	// reported unconfirmed and the frontier is computed from estimates.
	// For interactive triage; tests and CI confirm.
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

	// Candidate marks points the surrogate's static pass could not
	// prove dominated. Confirmation visits candidates cost-ascending
	// and may still skip one when an already-confirmed measurement
	// proves it dominated, so Confirmed implies Candidate but not the
	// reverse.
	Candidate bool

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

// Candidates counts the points that survived surrogate pruning.
func (r *Result) Candidates() int {
	n := 0
	for i := range r.Points {
		if r.Points[i].Candidate {
			n++
		}
	}
	return n
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
	res.Margin = opts.Margin
	if res.Margin <= 0 {
		res.Margin = math.Max(2*cal.MaxRelErr, DefaultMargin)
	}
	if res.Margin >= 1 {
		// ErrUsage only when the caller chose the margin; a derived
		// margin this wide means the calibration fit failed, which is a
		// pipeline-side condition, not a bad request.
		if opts.Margin > 0 {
			return nil, fmt.Errorf("explore: margin %.3f leaves no pruning power (calibration max rel err %.3f): %w", res.Margin, cal.MaxRelErr, ErrUsage)
		}
		return nil, fmt.Errorf("explore: derived margin %.3f leaves no pruning power (calibration max rel err %.3f)", res.Margin, cal.MaxRelErr)
	}

	surCtx, surSpan := obs.Start(ctx, obs.StageSurrogate)
	lower, upper, err := surrogatePass(surCtx, res, opts, cal.Model, res.Margin)
	surSpan.End()
	if err != nil {
		return nil, err
	}

	// Prune: keep only points the surrogate cannot prove dominated.
	cost := make([]float64, len(res.Points))
	for i := range res.Points {
		cost[i] = res.Points[i].Cost
	}
	candidates := pruneWithBounds(cost, lower, upper)
	for _, i := range candidates {
		res.Points[i].Candidate = true
	}

	if opts.SkipConfirm {
		res.Frontier = frontierOf(res.Points, candidates, false)
		return res, nil
	}

	// Confirm the candidates cycle-accurately through the standard
	// cached pipeline; each confirmation is a full scheme-set suite of
	// the point, so its rows land in the cache under the same
	// fingerprints any later direct sweep of that geometry uses.
	//
	// Confirmation is adaptive: candidates are visited cost-ascending,
	// and each measurement replaces that point's interval with its exact
	// value, which prunes remaining candidates harder than the interval
	// could — a cheaper confirmed q kills every p with true_q <= lower_p
	// (strict < on a cost tie). The dominance rule is the same as the
	// static pass, only with tighter information, so a true-frontier
	// point can still never be skipped.
	ctx, confirmSpan := obs.Start(ctx, obs.StageConfirm)
	defer confirmSpan.End()
	order := byCostThenCycles(cost, lower)
	order = filterTo(order, candidates)
	var confirmed []int
	bestCheaper := math.Inf(1) // min confirmed true cycles at strictly lower cost
	i := 0
	for i < len(order) {
		j := i
		groupBest := math.Inf(1) // min confirmed true cycles at this cost
		for j < len(order) && cost[order[j]] == cost[order[i]] {
			j++
		}
		for k := i; k < j; k++ {
			p := order[k]
			if bestCheaper <= lower[p] || groupBest < lower[p] {
				continue // a confirmed point already proves p dominated
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			suite, err := seda.RunSuiteCachedCtx(ctx, opts.Cache, res.Points[p].Config, opts.Workloads, opts.Suite)
			if err != nil {
				return nil, fmt.Errorf("explore: confirming %s: %w", res.Points[p].Config.Name, err)
			}
			var exec uint64
			for _, net := range opts.Workloads {
				row, err := seda.SchemeRow(suite.Rows[net.Name], opts.Scheme)
				if err != nil {
					return nil, err
				}
				exec += row.ExecCycles
			}
			res.Points[p].Confirmed = true
			res.Points[p].ExecCycles = exec
			confirmed = append(confirmed, p)
			if t := float64(exec); t < groupBest {
				groupBest = t
			}
		}
		if groupBest < bestCheaper {
			bestCheaper = groupBest
		}
		i = j
	}
	sort.Ints(confirmed)
	res.Frontier = frontierOf(res.Points, confirmed, true)
	return res, nil
}

// filterTo keeps the elements of order that are in the keep set,
// preserving order's ordering.
func filterTo(order, keep []int) []int {
	in := make(map[int]bool, len(keep))
	for _, i := range keep {
		in[i] = true
	}
	out := order[:0]
	for _, i := range order {
		if in[i] {
			out = append(out, i)
		}
	}
	return out
}

// surrogatePass prices every point analytically, returning the
// exec-cycle bound interval per point (see Model.execBounds). Points
// sharing an array geometry (rows, cols, SRAM) share one compute
// simulation and protection walk per workload — the summaries are
// DRAM-geometry independent — so a grid sweeping only memory knobs
// summarizes each workload exactly once.
func surrogatePass(ctx context.Context, res *Result, opts Options, m Model, margin float64) (lower, upper []float64, err error) {
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
	upper = make([]float64, len(res.Points))
	for _, k := range order {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		arr, err := scalesim.New(k.rows, k.cols, k.sram)
		if err != nil {
			return nil, nil, err
		}
		summaries := make([]*workloadSummary, len(opts.Workloads))
		for wi, net := range opts.Workloads {
			ws, err := summarizeWorkload(ctx, arr, net, opts.Scheme)
			if err != nil {
				return nil, nil, err
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
				lo, hi := m.execBounds(layers, margin)
				lower[pi] += lo
				upper[pi] += hi
			}
		}
	}
	return lower, upper, nil
}

// frontierOf computes the frontier over the candidate set, using
// confirmed cycles when available and estimates otherwise, and returns
// the point indices cost-ascending.
func frontierOf(points []Point, candidates []int, confirmed bool) []int {
	cost := make([]float64, len(candidates))
	cycles := make([]float64, len(candidates))
	for j, i := range candidates {
		cost[j] = points[i].Cost
		if confirmed {
			cycles[j] = float64(points[i].ExecCycles)
		} else {
			cycles[j] = points[i].SurrogateCycles
		}
	}
	var out []int
	for _, j := range frontier(cost, cycles) {
		out = append(out, candidates[j])
		points[candidates[j]].Frontier = true
	}
	sort.Slice(out, func(a, b int) bool {
		if points[out[a]].Cost != points[out[b]].Cost {
			return points[out[a]].Cost < points[out[b]].Cost
		}
		return out[a] < out[b]
	})
	return out
}
