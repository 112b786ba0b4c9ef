package scalesim

import (
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// Table II configurations.
func serverCfg(t *testing.T) *Config {
	t.Helper()
	c, err := New(256, 256, 24*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func edgeCfg(t *testing.T) *Config {
	t.Helper()
	c, err := New(32, 32, 480*1024)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(0, 32, 1024); err == nil {
		t.Error("accepted zero rows")
	}
	if _, err := New(32, 32, 0); err == nil {
		t.Error("accepted zero SRAM")
	}
	c := &Config{ArrayRows: 8, ArrayCols: 8, SRAMBytes: 1024,
		IfmapFrac: 0.6, WeightFrac: 0.5, OfmapFrac: 0.2}
	if err := c.Validate(); err == nil {
		t.Error("accepted fractions summing over 1")
	}
}

func TestComputeCyclesSmallConv(t *testing.T) {
	// 4x4 array; conv with wRows=R*S*C=4, wCols=M=4, ofmapPx=4 (2x2 out
	// from 3x3 in, 2x2 filter, 1 channel... wRows=4): one fold.
	c := &Config{ArrayRows: 4, ArrayCols: 4, SRAMBytes: 1 << 20,
		IfmapFrac: 0.45, WeightFrac: 0.35, OfmapFrac: 0.20}
	l := model.CV("t", 3, 3, 2, 2, 1, 4, 1)
	d := layerDims(l)
	if d.wRows != 4 || d.wCols != 4 || d.ofmapPx != 4 {
		t.Fatalf("dims = %+v", d)
	}
	got := c.computeCycles(d)
	want := uint64(2*4 + 4 + 4 - 2) // one fold
	if got != want {
		t.Errorf("cycles = %d, want %d", got, want)
	}
}

func TestComputeCyclesFolds(t *testing.T) {
	c := &Config{ArrayRows: 4, ArrayCols: 4, SRAMBytes: 1 << 20,
		IfmapFrac: 0.45, WeightFrac: 0.35, OfmapFrac: 0.20}
	// GEMM K=8 N=8: 2x2 folds.
	l := model.FC("g", 16, 8, 8)
	d := layerDims(l)
	got := c.computeCycles(d)
	perFold := uint64(2*4 + 4 + 16 - 2)
	if got != 4*perFold {
		t.Errorf("cycles = %d, want %d", got, 4*perFold)
	}
}

func TestLargerArrayNeverSlower(t *testing.T) {
	small := &Config{ArrayRows: 16, ArrayCols: 16, SRAMBytes: 1 << 20,
		IfmapFrac: 0.45, WeightFrac: 0.35, OfmapFrac: 0.20}
	big := &Config{ArrayRows: 64, ArrayCols: 64, SRAMBytes: 1 << 20,
		IfmapFrac: 0.45, WeightFrac: 0.35, OfmapFrac: 0.20}
	for _, n := range model.All() {
		for _, l := range n.Layers {
			ds := layerDims(l)
			// Tiny layers legitimately run slower on a larger array
			// (fill/drain overhead dominates a single underutilized
			// fold); require speedup only when the layer can fill it.
			if ds.wRows < 64 || ds.wCols < 64 {
				continue
			}
			if small.computeCycles(ds) < big.computeCycles(ds) {
				t.Errorf("%s/%s: larger array slower", n.Name, l.Name)
			}
		}
	}
}

func TestTrafficLowerBoundCompulsory(t *testing.T) {
	// Every layer must read each tensor at least once and write the
	// ofmap exactly the schemes' compulsory amount or more.
	cfg := edgeCfg(t)
	for _, n := range model.All() {
		res, err := cfg.SimulateNetwork(n)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		for _, lr := range res.Layers {
			l := lr.Layer
			// Strided convs don't necessarily touch every ifmap row
			// (1x1 stride-2 projections read only even rows; a 3x3
			// stride-2 conv can leave a trailing row unread), so the
			// lower bound is the rows the sliding window covers.
			minIfmap := l.IfmapBytes()
			if l.Kind != model.GEMM {
				// Union of the sliding window's rows: overlapping
				// windows (stride <= filt) cover a contiguous span;
				// disjoint windows (stride > filt) cover ofH separate
				// bands of filtH rows each.
				var covered int
				if l.Stride <= l.FiltH {
					covered = (l.OfmapH()-1)*l.Stride + l.FiltH
				} else {
					covered = l.OfmapH() * l.FiltH
				}
				if covered > l.IfmapH {
					covered = l.IfmapH
				}
				minIfmap = uint64(covered) * uint64(l.IfmapW) * uint64(l.Channels)
			}
			if lr.IfmapBytes < minIfmap {
				t.Errorf("%s/%s: ifmap traffic %d below covered rows %d",
					n.Name, l.Name, lr.IfmapBytes, minIfmap)
			}
			if lr.WeightBytes < l.WeightBytes() {
				t.Errorf("%s/%s: weight traffic %d below tensor size %d",
					n.Name, l.Name, lr.WeightBytes, l.WeightBytes())
			}
			if lr.OfmapBytes != l.OfmapBytes() {
				t.Errorf("%s/%s: ofmap traffic %d != tensor size %d",
					n.Name, l.Name, lr.OfmapBytes, l.OfmapBytes())
			}
		}
	}
}

func TestTraceMatchesTrafficCounters(t *testing.T) {
	cfg := edgeCfg(t)
	for _, name := range []string{"let", "alex", "rest", "trf"} {
		res, err := cfg.SimulateNetwork(model.ByName(name))
		if err != nil {
			t.Fatal(err)
		}
		for _, lr := range res.Layers {
			var rb, wb uint64
			for _, a := range lr.Trace.Accesses {
				if a.Kind == trace.Read {
					rb += uint64(a.Bytes)
				} else {
					wb += uint64(a.Bytes)
				}
			}
			if rb != lr.IfmapBytes+lr.WeightBytes {
				t.Errorf("%s/%s: trace reads %d != counters %d",
					name, lr.Layer.Name, rb, lr.IfmapBytes+lr.WeightBytes)
			}
			if wb != lr.OfmapBytes {
				t.Errorf("%s/%s: trace writes %d != ofmap %d",
					name, lr.Layer.Name, wb, lr.OfmapBytes)
			}
		}
	}
}

func TestServerSRAMMostlyResident(t *testing.T) {
	// With 24 MB SRAM most layers' ifmaps are resident, so total
	// traffic should be close to compulsory (within 15%).
	cfg := serverCfg(t)
	for _, name := range []string{"alex", "rest", "yolo"} {
		n := model.ByName(name)
		res, err := cfg.SimulateNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		var compulsory uint64
		for _, l := range n.Layers {
			compulsory += l.IfmapBytes() + l.WeightBytes() + l.OfmapBytes()
		}
		got := res.TotalDataBytes()
		if float64(got) > 1.15*float64(compulsory) {
			t.Errorf("%s server traffic %d exceeds 1.15x compulsory %d",
				name, got, compulsory)
		}
	}
}

func TestEdgeTrafficAtLeastServer(t *testing.T) {
	// The 480 KB edge SRAM forces re-streaming; per-network edge
	// traffic must be >= server traffic.
	srv := serverCfg(t)
	edg := edgeCfg(t)
	for _, n := range model.All() {
		rs, err := srv.SimulateNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		re, err := edg.SimulateNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		if re.TotalDataBytes() < rs.TotalDataBytes() {
			t.Errorf("%s: edge traffic %d < server %d",
				n.Name, re.TotalDataBytes(), rs.TotalDataBytes())
		}
	}
}

func TestHaloBytesPresentForOverlappingTiles(t *testing.T) {
	// Force tiling with a tiny SRAM so a 3x3 stride-1 conv has halo
	// re-fetch (FiltH - Stride = 2 rows per boundary).
	c := &Config{ArrayRows: 8, ArrayCols: 8, SRAMBytes: 8 * 1024,
		IfmapFrac: 0.45, WeightFrac: 0.35, OfmapFrac: 0.20, DoubleBuffered: true}
	l := model.CV("c", 66, 66, 3, 3, 8, 16, 1)
	lr := c.simulateLayer(l, 0, WeightsBase)
	if lr.Tiling.RowTiles < 2 {
		t.Fatalf("expected multiple row tiles, got %d", lr.Tiling.RowTiles)
	}
	if lr.HaloBytes == 0 {
		t.Error("no halo bytes recorded for overlapping stride-1 tiles")
	}
	if lr.Tiling.HaloRows != 2 {
		t.Errorf("halo rows = %d, want 2", lr.Tiling.HaloRows)
	}
	// Halo must be part of the ifmap traffic above the tensor size.
	if lr.IfmapBytes < l.IfmapBytes()+lr.HaloBytes {
		t.Errorf("ifmap traffic %d < tensor %d + halo %d",
			lr.IfmapBytes, l.IfmapBytes(), lr.HaloBytes)
	}
}

func TestNoHaloForStrideEqFilter(t *testing.T) {
	c := &Config{ArrayRows: 8, ArrayCols: 8, SRAMBytes: 8 * 1024,
		IfmapFrac: 0.45, WeightFrac: 0.35, OfmapFrac: 0.20, DoubleBuffered: true}
	l := model.CV("c", 64, 64, 2, 2, 8, 8, 2) // stride == filt: disjoint tiles
	lr := c.simulateLayer(l, 0, WeightsBase)
	if lr.HaloBytes != 0 {
		t.Errorf("halo bytes %d for non-overlapping tiles", lr.HaloBytes)
	}
}

func TestGEMMTileContiguity(t *testing.T) {
	c := edgeCfg(t)
	l := model.FC("g", 512, 512, 512)
	lr := c.simulateLayer(l, 0, WeightsBase)
	for _, a := range lr.Trace.Accesses {
		if a.Tensor == trace.IFMap && a.Bytes%uint32(l.Channels) != 0 {
			t.Errorf("GEMM ifmap run %d not a multiple of K=%d", a.Bytes, l.Channels)
		}
	}
}

func TestAddressRegionsDisjoint(t *testing.T) {
	cfg := edgeCfg(t)
	res, err := cfg.SimulateNetwork(model.ByName("rest"))
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.Layers {
		for _, a := range lr.Trace.Accesses {
			end := a.Addr + uint64(a.Bytes)
			switch a.Tensor {
			case trace.IFMap, trace.OFMap:
				if a.Addr < ActABase || end > WeightsBase {
					t.Fatalf("activation access [%#x,%#x) outside banks", a.Addr, end)
				}
			case trace.Weights:
				if a.Addr < WeightsBase {
					t.Fatalf("weight access %#x below weight base", a.Addr)
				}
			}
		}
	}
}

func TestOfmapBankAlternates(t *testing.T) {
	if ifmapBase(0) != ActABase || ofmapBase(0) != ActBBase {
		t.Error("layer 0 banks wrong")
	}
	if ifmapBase(1) != ActBBase || ofmapBase(1) != ActABase {
		t.Error("layer 1 banks wrong")
	}
	// Layer i's ofmap bank must equal layer i+1's ifmap bank.
	for i := 0; i < 10; i++ {
		if ofmapBase(i) != ifmapBase(i+1) {
			t.Errorf("layer %d ofmap bank != layer %d ifmap bank", i, i+1)
		}
	}
}

func TestIssueCyclesNonDecreasingPerLayer(t *testing.T) {
	cfg := edgeCfg(t)
	res, err := cfg.SimulateNetwork(model.ByName("mob"))
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.Layers {
		var prev uint64
		for _, a := range lr.Trace.Accesses {
			if a.Cycle < prev {
				t.Fatalf("layer %s: issue cycles regress (%d after %d)",
					lr.Layer.Name, a.Cycle, prev)
			}
			prev = a.Cycle
		}
	}
}

func TestAllNetworksSimulateOnBothNPUs(t *testing.T) {
	for _, cfg := range []*Config{serverCfg(t), edgeCfg(t)} {
		for _, n := range model.All() {
			res, err := cfg.SimulateNetwork(n)
			if err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
			var compute uint64
			for i := range res.Layers {
				compute += res.Layers[i].ComputeCycles
			}
			if compute == 0 {
				t.Errorf("%s: zero compute cycles", n.Name)
			}
			if res.TotalDataBytes() == 0 {
				t.Errorf("%s: zero traffic", n.Name)
			}
		}
	}
}

func TestLoopOrderStrings(t *testing.T) {
	if GroupsOuter.String() != "groups-outer" || TilesOuter.String() != "tiles-outer" {
		t.Error("loop order strings wrong")
	}
}
