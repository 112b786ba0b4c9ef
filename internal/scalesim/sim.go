package scalesim

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/trace"
)

// SimulateNetwork runs every layer and returns per-layer results.
// Weight regions are laid out consecutively in the weight address
// space; activations ping-pong between the two activation banks.
func (c *Config) SimulateNetwork(n *model.Network) (*NetworkResult, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	res := &NetworkResult{Network: n}
	var weightOffset uint64
	for i, l := range n.Layers {
		lr := c.simulateLayer(l, i, WeightsBase+weightOffset)
		weightOffset += l.WeightBytes()
		res.Layers = append(res.Layers, lr)
	}
	return res, nil
}

// dims normalizes a layer to the weight-stationary view. Activations
// use NHWC row-major layout, so a full-width band of rows is one
// contiguous byte run; weights use [M][R·S·C] layout, so a filter
// group is contiguous.
type dims struct {
	wRows, wCols int // weight matrix shape mapped onto the array
	ofmapPx      int // output pixels streamed per fold
	filterBytes  int // bytes of one output channel's weights
	outC         int // output channels (columns to tile into groups)
	ifH          int // ifmap rows (M for GEMM)
	ifRowBytes   int // bytes per ifmap row (W*C; K for GEMM)
	ofH          int // ofmap rows (M for GEMM)
	ofRowBytes   int // bytes per ofmap row (OW*M; N for GEMM)
	stride, halo int
	filtH        int
}

func layerDims(l model.Layer) dims {
	switch l.Kind {
	case model.GEMM:
		return dims{
			wRows: l.Channels, wCols: l.NumFilt,
			ofmapPx:     l.GemmM,
			filterBytes: l.Channels,
			outC:        l.NumFilt,
			ifH:         l.GemmM, ifRowBytes: l.Channels,
			ofH: l.GemmM, ofRowBytes: l.NumFilt,
			stride: 1, halo: 0, filtH: 1,
		}
	case model.DWConv:
		return dims{
			wRows: l.FiltH * l.FiltW, wCols: l.Channels,
			ofmapPx:     l.OfmapH() * l.OfmapW(),
			filterBytes: l.FiltH * l.FiltW,
			outC:        l.Channels,
			ifH:         l.IfmapH, ifRowBytes: l.IfmapW * l.Channels,
			ofH: l.OfmapH(), ofRowBytes: l.OfmapW() * l.Channels,
			stride: l.Stride, halo: maxInt(0, l.FiltH-l.Stride), filtH: l.FiltH,
		}
	default: // Conv
		return dims{
			wRows: l.FiltH * l.FiltW * l.Channels, wCols: l.NumFilt,
			ofmapPx:     l.OfmapH() * l.OfmapW(),
			filterBytes: l.FiltH * l.FiltW * l.Channels,
			outC:        l.NumFilt,
			ifH:         l.IfmapH, ifRowBytes: l.IfmapW * l.Channels,
			ofH: l.OfmapH(), ofRowBytes: l.OfmapW() * l.NumFilt,
			stride: l.Stride, halo: maxInt(0, l.FiltH-l.Stride), filtH: l.FiltH,
		}
	}
}

// computeCycles applies the analytical weight-stationary runtime:
// every fold loads its weights into the array (ArrayRows cycles),
// then streams all output pixels with fill+drain overhead.
func (c *Config) computeCycles(d dims) uint64 {
	foldR := ceilDiv(d.wRows, c.ArrayRows)
	foldC := ceilDiv(d.wCols, c.ArrayCols)
	perFold := uint64(2*c.ArrayRows + c.ArrayCols + d.ofmapPx - 2)
	return uint64(foldR) * uint64(foldC) * perFold
}

// chooseTiling picks the output-row tile Th and filter group Nt.
//
// The schedule is tiles-outer: for each output-row tile, all filter
// groups are iterated while partial outputs accumulate in the ofmap
// buffer, and the tile's full-channel output is written once at the
// end. This keeps every DRAM run contiguous in NHWC layout. The
// consequence is that non-resident weights are re-streamed once per
// row tile, and the ifmap tile is read exactly once per row tile
// (plus the halo overlap rows shared with the previous tile).
func (c *Config) chooseTiling(l model.Layer, d dims) Tiling {
	ifBuf, wBuf, ofBuf := c.ifmapBuf(), c.weightBuf(), c.ofmapBuf()

	// Filter group size: output channels whose weights fit together.
	nt := d.outC
	if d.filterBytes > 0 && d.filterBytes*d.outC > wBuf {
		nt = wBuf / d.filterBytes
	}
	nt = clamp(nt, 1, d.outC)
	groups := ceilDiv(d.outC, nt)

	// Output-row tile: the ifmap band must fit the ifmap buffer and
	// the full-channel output band must fit the ofmap buffer.
	th := d.ofH
	for th > 1 {
		inRows := (th-1)*d.stride + d.filtH
		if inRows > d.ifH {
			inRows = d.ifH
		}
		if inRows*d.ifRowBytes <= ifBuf && th*d.ofRowBytes <= ofBuf {
			break
		}
		th--
	}
	rowTiles := ceilDiv(d.ofH, th)

	wTotal := l.WeightBytes()
	ifResident := l.IfmapBytes() <= uint64(ifBuf)
	wResident := wTotal <= uint64(wBuf) // equivalent to groups == 1

	weightPasses := 1
	if !wResident {
		weightPasses = rowTiles
	}

	t := Tiling{
		Order:    TilesOuter,
		RowTiles: rowTiles, Groups: groups, Th: th, Nt: nt,
		HaloRows:       d.halo,
		IfmapResident:  ifResident,
		WeightResident: wResident,
		IfmapPasses:    1,
		WeightPasses:   weightPasses,
	}
	inRows := (th-1)*d.stride + d.filtH
	if inRows > d.ifH {
		inRows = d.ifH
	}
	t.IfmapRunBytes = inRows * d.ifRowBytes
	t.OfmapRunBytes = th * d.ofRowBytes
	return t
}

// weightFetch is one filter group's precomputed DRAM fetch: absolute
// address and size. The group plan is identical for every row tile, so
// it is built once per layer instead of re-derived inside the tile
// loop (tileSize + three multiplications per (tile, group) pair on
// non-resident layers).
type weightFetch struct {
	addr  uint64
	bytes uint64
}

// schedule is the per-layer scheduling plan hoisted out of the tile
// loop: the dataflow's address strides, per-tile row activity, the
// filter-group fetch plan, and the compute-cycle step. Everything the
// loop needs per tile reduces to one multiply-add on these constants
// (plus the boundary clamps for the remainder tile, which the golden
// scheduling tests pin).
type schedule struct {
	perStep    uint64 // issue-cycle advance per (tile, group) step
	ifStride   uint64 // ifmap address advance per row tile (bytes)
	ofStride   uint64 // ofmap address advance per row tile (bytes)
	ifRowBytes uint64
	ofRowBytes uint64
	fullInRows int           // input-row activity of a full (non-remainder) tile
	haloBytes  uint64        // halo re-fetch charged per tile after the first
	fetches    []weightFetch // per filter group, in group order
}

// buildSchedule precomputes the plan for one layer.
func buildSchedule(d dims, til Tiling, cycles uint64, weightBase uint64) schedule {
	totalSteps := til.RowTiles * til.Groups
	perStep := cycles / uint64(totalSteps)
	if perStep == 0 {
		perStep = 1
	}
	sch := schedule{
		perStep:    perStep,
		ifStride:   uint64(til.Th*d.stride) * uint64(d.ifRowBytes),
		ofStride:   uint64(til.Th) * uint64(d.ofRowBytes),
		ifRowBytes: uint64(d.ifRowBytes),
		ofRowBytes: uint64(d.ofRowBytes),
		fullInRows: (til.Th-1)*d.stride + d.filtH,
		fetches:    make([]weightFetch, til.Groups),
	}
	if d.halo > 0 {
		halo := d.halo
		if halo > sch.fullInRows {
			halo = sch.fullInRows
		}
		sch.haloBytes = uint64(halo) * sch.ifRowBytes
	}
	for g := 0; g < til.Groups; g++ {
		nt := tileSize(d.outC, til.Nt, g)
		sch.fetches[g] = weightFetch{
			addr:  weightBase + uint64(g*til.Nt)*uint64(d.filterBytes),
			bytes: uint64(nt) * uint64(d.filterBytes),
		}
	}
	return sch
}

// simulateLayer produces compute cycles, the tiling decision, and the
// DRAM trace for one layer. The tile loop runs over the precomputed
// schedule; its emitted trace is byte-identical to the per-tile
// rederivation it replaced (TestScheduleGolden pins traces and stats,
// including remainder tiles and a degenerate 1×1 array).
func (c *Config) simulateLayer(l model.Layer, layerID int, weightBase uint64) LayerResult {
	d := layerDims(l)
	til := c.chooseTiling(l, d)
	cycles := c.computeCycles(d)

	lr := LayerResult{
		Layer: l, LayerID: layerID,
		ComputeCycles: cycles,
		Tiling:        til,
		Trace:         &trace.Trace{},
	}

	// The schedule's access count is known in closed form: one ifmap
	// band and one ofmap band per row tile, plus a weight fetch per
	// filter group on the first tile (every tile when weights are not
	// resident) — so the trace is pre-sized exactly and appends never
	// reallocate.
	weightFetches := til.Groups
	if !til.WeightResident {
		weightFetches = til.Groups * til.RowTiles
	}
	lr.Trace.Reserve(2*til.RowTiles + weightFetches)

	ifBase := ifmapBase(layerID)
	ofBase := ofmapBase(layerID)
	sch := buildSchedule(d, til, cycles, weightBase)

	step := 0
	for t := 0; t < til.RowTiles; t++ {
		tileID := uint32(t)
		th := tileSize(d.ofH, til.Th, t)

		// Ifmap band for this tile (one contiguous NHWC run). Full
		// tiles use the precomputed row activity; the remainder tile
		// (smaller th) and the input boundary clamp are the only
		// per-tile arithmetic left.
		{
			cycle := uint64(step) * sch.perStep
			r0 := t * til.Th * d.stride
			inRows := sch.fullInRows
			if th != til.Th {
				inRows = (th-1)*d.stride + d.filtH
			}
			if r0+inRows > d.ifH {
				inRows = d.ifH - r0
			}
			if t > 0 && d.halo > 0 {
				hb := sch.haloBytes
				if inRows < d.halo {
					hb = uint64(inRows) * sch.ifRowBytes
				}
				lr.HaloBytes += hb
			}
			bytes := uint64(inRows) * sch.ifRowBytes
			lr.appendAccess(trace.Access{
				Cycle: cycle, Addr: ifBase + uint64(t)*sch.ifStride,
				Bytes: uint32(bytes), Kind: trace.Read, Class: trace.Data,
				Tensor: trace.IFMap, Layer: uint16(layerID), Tile: tileID,
			})
			lr.IfmapBytes += bytes
		}

		// Filter groups: weights fetched on the first tile, and again
		// on every tile when not resident, straight from the plan.
		if t == 0 || !til.WeightResident {
			for g := 0; g < til.Groups; g++ {
				cycle := uint64(step) * sch.perStep
				step++
				f := &sch.fetches[g]
				lr.appendAccess(trace.Access{
					Cycle: cycle, Addr: f.addr,
					Bytes: uint32(f.bytes), Kind: trace.Read, Class: trace.Data,
					Tensor: trace.Weights, Layer: uint16(layerID), Tile: tileID,
				})
				lr.WeightBytes += f.bytes
			}
		} else {
			step += til.Groups
		}

		// Full-channel output band written once per tile.
		{
			cycle := uint64(step) * sch.perStep
			bytes := uint64(th) * sch.ofRowBytes
			lr.appendAccess(trace.Access{
				Cycle: cycle, Addr: ofBase + uint64(t)*sch.ofStride,
				Bytes: uint32(bytes), Kind: trace.Write, Class: trace.Data,
				Tensor: trace.OFMap, Layer: uint16(layerID), Tile: tileID,
			})
			lr.OfmapBytes += bytes
		}
	}
	return lr
}

func (lr *LayerResult) appendAccess(a trace.Access) {
	if a.Bytes == 0 {
		panic(fmt.Sprintf("scalesim: zero-byte access emitted for layer %d", a.Layer))
	}
	lr.Trace.Append(a)
}

// tileSize returns the size of tile index i when tiling total into
// chunks of size chunk.
func tileSize(total, chunk, i int) int {
	lo := i * chunk
	hi := lo + chunk
	if hi > total {
		hi = total
	}
	return hi - lo
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
