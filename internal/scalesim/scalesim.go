// Package scalesim is a SCALE-Sim-style systolic-array simulator: it
// computes per-layer compute cycles for a weight-stationary PE array
// and generates the DRAM access traces that the rest of the SeDA
// pipeline consumes (paper §IV-A: "The DNN accelerator can generate
// detailed computation information of systolic array, and DRAM access
// traces").
//
// Modeling choices (documented in DESIGN.md):
//
//   - Compute follows the analytical weight-stationary model: the
//     weight matrix (R·S·C rows × M columns for convolution, K×N for
//     GEMM) is folded onto the PE array, and each fold streams all
//     output pixels through the array with pipeline fill/drain and
//     weight-load overheads.
//   - On-chip SRAM is split into double-buffered ifmap/weight/ofmap
//     regions. Tiling picks an output-row tile (Th) bounded by the
//     ifmap and ofmap buffers and a filter group (Nt output channels)
//     bounded by the weight buffer.
//   - The schedule is tiles-outer: per output-row tile, all filter
//     groups accumulate partial sums in the ofmap buffer and the
//     full-channel output band is written once. Non-resident weights
//     are re-streamed once per row tile.
//   - Tensors are NHWC row-major (weights [M][R·S·C]; GEMM activations
//     [M][K]), so every tile access is one contiguous byte run — the
//     geometry the protection-block alignment analysis keys on.
//     Consecutive ifmap row tiles overlap by the convolution halo
//     (FiltH−Stride rows), which is the intra-layer tile overlap
//     SeDA's optBlk search exploits.
package scalesim

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/trace"
)

// Config describes the accelerator's compute and SRAM resources.
type Config struct {
	ArrayRows int
	ArrayCols int
	SRAMBytes int

	// Buffer fractions of SRAMBytes; must sum to <= 1. Zero values
	// select the defaults (0.45 / 0.35 / 0.20).
	IfmapFrac  float64
	WeightFrac float64
	OfmapFrac  float64

	// DoubleBuffered halves each buffer's usable capacity to model
	// ping-pong prefetching. Defaults to true via New.
	DoubleBuffered bool
}

// New fills in defaults and validates.
func New(arrayRows, arrayCols, sramBytes int) (*Config, error) {
	c := &Config{
		ArrayRows:      arrayRows,
		ArrayCols:      arrayCols,
		SRAMBytes:      sramBytes,
		IfmapFrac:      0.45,
		WeightFrac:     0.35,
		OfmapFrac:      0.20,
		DoubleBuffered: true,
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.ArrayRows <= 0 || c.ArrayCols <= 0 {
		return fmt.Errorf("scalesim: non-positive array %dx%d", c.ArrayRows, c.ArrayCols)
	}
	if c.SRAMBytes <= 0 {
		return fmt.Errorf("scalesim: non-positive SRAM %d", c.SRAMBytes)
	}
	if c.IfmapFrac <= 0 || c.WeightFrac <= 0 || c.OfmapFrac <= 0 ||
		c.IfmapFrac+c.WeightFrac+c.OfmapFrac > 1.0001 {
		return fmt.Errorf("scalesim: bad buffer fractions %v/%v/%v",
			c.IfmapFrac, c.WeightFrac, c.OfmapFrac)
	}
	return nil
}

// buffer capacities in bytes (after double-buffering).
func (c *Config) ifmapBuf() int  { return c.scaled(c.IfmapFrac) }
func (c *Config) weightBuf() int { return c.scaled(c.WeightFrac) }
func (c *Config) ofmapBuf() int  { return c.scaled(c.OfmapFrac) }

func (c *Config) scaled(f float64) int {
	b := int(float64(c.SRAMBytes) * f)
	if c.DoubleBuffered {
		b /= 2
	}
	if b < 1 {
		b = 1
	}
	return b
}

// LoopOrder is the chosen dataflow schedule for a layer.
type LoopOrder uint8

const (
	// GroupsOuter iterates filter groups outermost; the ifmap is
	// re-streamed per group unless it is SRAM-resident.
	GroupsOuter LoopOrder = iota
	// TilesOuter iterates output-row tiles outermost; weights are
	// re-streamed per tile unless they are SRAM-resident.
	TilesOuter
)

func (o LoopOrder) String() string {
	if o == GroupsOuter {
		return "groups-outer"
	}
	return "tiles-outer"
}

// Tiling summarizes the schedule picked for a layer. The authblock
// search and the over-fetch model both key on this geometry.
type Tiling struct {
	Order    LoopOrder
	RowTiles int // ofmap row tiles
	Groups   int // filter groups
	Th       int // ofmap rows per tile (last may be smaller)
	Nt       int // output channels per group (last may be smaller)

	// HaloRows is the ifmap row overlap between consecutive tiles
	// (FiltH - Stride, clamped at 0).
	HaloRows int

	// IfmapRunBytes is the contiguous ifmap run length per tile fetch
	// (inRows × W × C for conv, Th × K for GEMM).
	IfmapRunBytes int
	// OfmapRunBytes is the contiguous ofmap run per tile write
	// (Th × OW × M for conv, Th × N for GEMM).
	OfmapRunBytes int

	IfmapResident  bool
	WeightResident bool
	IfmapPasses    int // how many times the full ifmap is streamed
	WeightPasses   int // how many times the full weight set is streamed
}

// LayerResult is the simulation product for one layer.
type LayerResult struct {
	Layer         model.Layer
	LayerID       int
	ComputeCycles uint64
	Tiling        Tiling
	Trace         *trace.Trace

	IfmapBytes  uint64 // bytes of ifmap traffic (including re-reads & halo)
	WeightBytes uint64
	OfmapBytes  uint64
	HaloBytes   uint64 // portion of IfmapBytes that is halo re-fetch
}

// DataBytes is the layer's total DRAM data traffic.
func (r *LayerResult) DataBytes() uint64 {
	return r.IfmapBytes + r.WeightBytes + r.OfmapBytes
}

// NetworkResult aggregates per-layer results.
type NetworkResult struct {
	Network *model.Network
	Layers  []LayerResult
}

// TotalDataBytes sums data traffic.
func (n *NetworkResult) TotalDataBytes() uint64 {
	var s uint64
	for i := range n.Layers {
		s += n.Layers[i].DataBytes()
	}
	return s
}

// Address-space layout: three disjoint regions, with activations
// ping-ponging between two banks so layer i's ofmap region is layer
// i+1's ifmap region (the inter-layer tiling-pattern interaction the
// paper highlights in Fig. 3(b)).
const (
	ActABase    uint64 = 0x1000_0000
	ActBBase    uint64 = 0x3000_0000
	WeightsBase uint64 = 0x5000_0000
)

// ifmapBase returns the activation bank holding layer id's input.
func ifmapBase(layerID int) uint64 {
	if layerID%2 == 0 {
		return ActABase
	}
	return ActBBase
}

// ofmapBase returns the activation bank receiving layer id's output.
func ofmapBase(layerID int) uint64 {
	if layerID%2 == 0 {
		return ActBBase
	}
	return ActABase
}
