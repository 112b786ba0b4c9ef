package scalesim

import (
	"fmt"
	"testing"

	"repro/internal/model"
)

// Dataflow selects the systolic-array mapping strategy. The paper's
// evaluation uses the weight-stationary mapping (the TPU-v1 and
// Exynos NPU style) that SimulateNetwork schedules; output- and
// input-stationary exist only for the ablation below, with the
// SCALE-Sim-style analytical runtimes.
type Dataflow uint8

const (
	// WeightStationary pins the weight matrix onto the PE array and
	// streams ifmap pixels through (TPU-style). Default.
	WeightStationary Dataflow = iota
	// OutputStationary pins output pixels onto PEs and streams the
	// reduction dimension through.
	OutputStationary
	// InputStationary pins ifmap elements onto the array and streams
	// weights through.
	InputStationary
)

func (d Dataflow) String() string {
	switch d {
	case WeightStationary:
		return "ws"
	case OutputStationary:
		return "os"
	case InputStationary:
		return "is"
	}
	return fmt.Sprintf("dataflow(%d)", uint8(d))
}

// computeCyclesFor applies the analytical runtime of the selected
// dataflow. All three share the fold structure (tile the stationary
// matrix onto the array, stream the moving operand per fold with
// pipeline fill/drain); they differ in which dimensions fold and
// which streams.
func (c *Config) computeCyclesFor(d dims, df Dataflow) uint64 {
	switch df {
	case OutputStationary:
		// Output pixels fold onto rows, output channels onto columns;
		// the reduction dimension streams per fold.
		foldR := ceilDiv(d.ofmapPx, c.ArrayRows)
		foldC := ceilDiv(d.wCols, c.ArrayCols)
		perFold := uint64(d.wRows + c.ArrayRows + c.ArrayCols - 2)
		return uint64(foldR) * uint64(foldC) * perFold
	case InputStationary:
		// Ifmap pixels fold onto rows, reduction onto columns; output
		// channels stream per fold.
		foldR := ceilDiv(d.ofmapPx, c.ArrayRows)
		foldC := ceilDiv(d.wRows, c.ArrayCols)
		perFold := uint64(2*c.ArrayRows + c.ArrayCols + d.wCols - 2)
		return uint64(foldR) * uint64(foldC) * perFold
	default: // WeightStationary
		return c.computeCycles(d)
	}
}

// ComputeCyclesByDataflow returns a layer's analytical compute cycles
// under each of the three dataflows, for ablation studies.
func (c *Config) ComputeCyclesByDataflow(lr *LayerResult) map[Dataflow]uint64 {
	d := layerDims(lr.Layer)
	return map[Dataflow]uint64{
		WeightStationary: c.computeCyclesFor(d, WeightStationary),
		OutputStationary: c.computeCyclesFor(d, OutputStationary),
		InputStationary:  c.computeCyclesFor(d, InputStationary),
	}
}

func TestDataflowStrings(t *testing.T) {
	if WeightStationary.String() != "ws" || OutputStationary.String() != "os" ||
		InputStationary.String() != "is" {
		t.Error("dataflow strings wrong")
	}
}

func TestDataflowCyclesAllPositive(t *testing.T) {
	cfg := edgeCfg(t)
	res, err := cfg.SimulateNetwork(model.ByName("rest"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Layers {
		cycles := cfg.ComputeCyclesByDataflow(&res.Layers[i])
		for df, c := range cycles {
			if c == 0 {
				t.Errorf("layer %s: %s cycles = 0", res.Layers[i].Layer.Name, df)
			}
		}
		if cycles[WeightStationary] != res.Layers[i].ComputeCycles {
			t.Errorf("layer %s: WS ablation cycles != simulated cycles",
				res.Layers[i].Layer.Name)
		}
	}
}

func TestOutputStationaryWinsOnDeepReduction(t *testing.T) {
	// A layer with a huge reduction dimension and few outputs: OS
	// streams the reduction once per fold, so it needs fewer total
	// cycles than WS, which re-streams the (tiny) output space for
	// every reduction fold.
	cfg := edgeCfg(t)
	l := model.FC("deep", 8, 65536, 8) // M=8, K=65536, N=8
	lr := cfg.simulateLayer(l, 0, WeightsBase)
	cycles := cfg.ComputeCyclesByDataflow(&lr)
	if cycles[OutputStationary] >= cycles[WeightStationary] {
		t.Errorf("OS %d not faster than WS %d on deep-reduction GEMM",
			cycles[OutputStationary], cycles[WeightStationary])
	}
}

func TestWeightStationaryWinsOnWideOutput(t *testing.T) {
	// Many output pixels, small reduction: WS streams the big output
	// space once per (small) weight fold; OS folds the output space
	// onto the array repeatedly, paying fill/drain per fold.
	cfg := edgeCfg(t)
	l := model.CV("wide", 226, 226, 3, 3, 3, 32, 1)
	lr := cfg.simulateLayer(l, 0, WeightsBase)
	cycles := cfg.ComputeCyclesByDataflow(&lr)
	if cycles[WeightStationary] >= cycles[OutputStationary] {
		t.Errorf("WS %d not faster than OS %d on wide-output conv",
			cycles[WeightStationary], cycles[OutputStationary])
	}
}

// BenchmarkAblationDataflow compares the three systolic dataflow
// mappings' compute cycles on ResNet-18 for both NPU array sizes.
func BenchmarkAblationDataflow(b *testing.B) {
	for _, cfg := range []struct {
		name       string
		rows, cols int
		sram       int
	}{
		{"server", 256, 256, 24 << 20},
		{"edge", 32, 32, 480 << 10},
	} {
		c, err := New(cfg.rows, cfg.cols, cfg.sram)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := c.SimulateNetwork(model.ByName("rest"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				totals := map[Dataflow]uint64{}
				for li := range sim.Layers {
					for df, cyc := range c.ComputeCyclesByDataflow(&sim.Layers[li]) {
						totals[df] += cyc
					}
				}
				b.ReportMetric(float64(totals[WeightStationary]), "ws-cycles")
				b.ReportMetric(float64(totals[OutputStationary]), "os-cycles")
				b.ReportMetric(float64(totals[InputStationary]), "is-cycles")
			}
		})
	}
}
