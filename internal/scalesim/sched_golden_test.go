package scalesim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// schedGolden pins the scheduler cycle-accurately: compute cycles
// under all three dataflows, the full tiling decision, trace summary
// stats, per-tensor byte accounting, and a digest over every emitted
// access (cycle, address, size, kind, class, tensor, layer, tile).
// The table was generated from the pre-hoist per-tile scheduler and
// verified bit-identical against the precomputed-schedule rewrite, so
// any future change to sim.go's inner loop that moves a single access
// or cycle fails here. The cases cover a tile-remainder geometry
// (conv-rem: 54 output rows over 9-row tiles; conv-odd: odd everything
// at stride 2), a depthwise layer, a GEMM with non-resident weights,
// and a degenerate 1×1 array that maximizes folds and tiling.
type schedGoldenCase struct {
	cfg, layer                      string
	compute, ws, os, is             uint64
	rowTiles, groups, th, nt, halo  int
	ifRun, ofRun                    int
	ifRes, wRes                     bool
	wPasses                         int
	accesses, readBytes, writeBytes uint64
	highCycle                       uint64
	ifBytes, wBytes, ofBytes        uint64
	haloBytes                       uint64
	traceDigest                     string
}

var schedGolden = []schedGoldenCase{
	{cfg: "edge", layer: "conv-rem", compute: 216720, ws: 216720, os: 234784, is: 321264,
		rowTiles: 6, groups: 1, th: 9, nt: 100, halo: 2, ifRun: 39424, ofRun: 48600,
		ifRes: false, wRes: true, wPasses: 1,
		accesses: 13, readBytes: 294144, writeBytes: 291600, highCycle: 216720,
		ifBytes: 236544, wBytes: 57600, ofBytes: 291600, haloBytes: 35840, traceDigest: "de63ebde8cb6e6bb"},
	{cfg: "edge", layer: "conv-odd", compute: 1595, ws: 1595, os: 1720, is: 4680,
		rowTiles: 1, groups: 1, th: 15, nt: 23, halo: 1, ifRun: 16337, ofRun: 5175,
		ifRes: true, wRes: true, wPasses: 1,
		accesses: 3, readBytes: 19856, writeBytes: 5175, highCycle: 1595,
		ifBytes: 16337, wBytes: 3519, ofBytes: 5175, haloBytes: 0, traceDigest: "9ba3f5bf21bdf69a"},
	{cfg: "edge", layer: "dw", compute: 770, ws: 770, os: 1562, is: 2772,
		rowTiles: 1, groups: 1, th: 26, nt: 32, halo: 2, ifRun: 25088, ofRun: 21632,
		ifRes: true, wRes: true, wPasses: 1,
		accesses: 3, readBytes: 25376, writeBytes: 21632, highCycle: 770,
		ifBytes: 25088, wBytes: 288, ofBytes: 21632, haloBytes: 0, traceDigest: "f5f8777d9ea1a597"},
	{cfg: "edge", layer: "fc", compute: 80896, ws: 80896, os: 36736, is: 35008,
		rowTiles: 2, groups: 6, th: 49, nt: 168, halo: 0, ifRun: 25088, ofRun: 49000,
		ifRes: true, wRes: false, wPasses: 2,
		accesses: 16, readBytes: 1056768, writeBytes: 64000, highCycle: 80892,
		ifBytes: 32768, wBytes: 1024000, ofBytes: 64000, haloBytes: 0, traceDigest: "221ce6465def9b61"},
	{cfg: "server", layer: "conv-rem", compute: 11046, ws: 11046, os: 13032, is: 31176,
		rowTiles: 1, groups: 1, th: 54, nt: 100, halo: 2, ifRun: 200704, ofRun: 291600,
		ifRes: true, wRes: true, wPasses: 1,
		accesses: 3, readBytes: 258304, writeBytes: 291600, highCycle: 11046,
		ifBytes: 200704, wBytes: 57600, ofBytes: 291600, haloBytes: 0, traceDigest: "dc35a18e58c904cf"},
	{cfg: "server", layer: "conv-odd", compute: 991, ws: 991, os: 663, is: 789,
		rowTiles: 1, groups: 1, th: 15, nt: 23, halo: 1, ifRun: 16337, ofRun: 5175,
		ifRes: true, wRes: true, wPasses: 1,
		accesses: 3, readBytes: 19856, writeBytes: 5175, highCycle: 991,
		ifBytes: 16337, wBytes: 3519, ofBytes: 5175, haloBytes: 0, traceDigest: "809383fdcff51112"},
	{cfg: "server", layer: "dw", compute: 1442, ws: 1442, os: 1557, is: 2394,
		rowTiles: 1, groups: 1, th: 26, nt: 32, halo: 2, ifRun: 25088, ofRun: 21632,
		ifRes: true, wRes: true, wPasses: 1,
		accesses: 3, readBytes: 25376, writeBytes: 21632, highCycle: 1442,
		ifBytes: 25088, wBytes: 288, ofBytes: 21632, haloBytes: 0, traceDigest: "1325c4b0d7bd55c9"},
	{cfg: "server", layer: "fc", compute: 6640, ws: 6640, os: 4088, is: 3532,
		rowTiles: 1, groups: 1, th: 64, nt: 1000, halo: 0, ifRun: 32768, ofRun: 64000,
		ifRes: true, wRes: true, wPasses: 1,
		accesses: 3, readBytes: 544768, writeBytes: 64000, highCycle: 6640,
		ifBytes: 32768, wBytes: 512000, ofBytes: 64000, haloBytes: 0, traceDigest: "c04fd1cde74632b8"},
	{cfg: "deg1x1", layer: "conv-rem", compute: 168019200, ws: 168019200, os: 167961600, is: 169641216,
		rowTiles: 54, groups: 50, th: 1, nt: 2, halo: 2, ifRun: 10752, ofRun: 5400,
		ifRes: false, wRes: false, wPasses: 54,
		accesses: 2808, readBytes: 3691008, writeBytes: 291600, highCycle: 168018300,
		ifBytes: 580608, wBytes: 3110400, ofBytes: 291600, haloBytes: 379904, traceDigest: "efbba2d2cac649a0"},
	{cfg: "deg1x1", layer: "conv-odd", compute: 795294, ws: 795294, os: 791775, is: 826200,
		rowTiles: 15, groups: 3, th: 1, nt: 9, halo: 1, ifRun: 1581, ofRun: 345,
		ifRes: false, wRes: false, wPasses: 15,
		accesses: 75, readBytes: 76500, writeBytes: 5175, highCycle: 795285,
		ifBytes: 23715, wBytes: 52785, ofBytes: 5175, haloBytes: 7378, traceDigest: "476f58293b0c6716"},
	{cfg: "deg1x1", layer: "dw", compute: 194976, ws: 194976, os: 194688, is: 200772,
		rowTiles: 26, groups: 1, th: 1, nt: 32, halo: 2, ifRun: 2688, ofRun: 832,
		ifRes: false, wRes: true, wPasses: 1,
		accesses: 53, readBytes: 70176, writeBytes: 21632, highCycle: 194974,
		ifBytes: 69888, wBytes: 288, ofBytes: 21632, haloBytes: 44800, traceDigest: "ecc0bc1e5a637ea1"},
	{cfg: "deg1x1", layer: "fc", compute: 33280000, ws: 33280000, os: 32768000, is: 32800768,
		rowTiles: 64, groups: 500, th: 1, nt: 2, halo: 0, ifRun: 512, ofRun: 1000,
		ifRes: false, wRes: false, wPasses: 64,
		accesses: 32128, readBytes: 32800768, writeBytes: 64000, highCycle: 33280000,
		ifBytes: 32768, wBytes: 32768000, ofBytes: 64000, haloBytes: 0, traceDigest: "5dcccfc056493e1c"},
}

var schedGoldenConfigs = map[string][3]int{
	"edge":   {32, 32, 480 << 10},
	"server": {256, 256, 24 << 20},
	"deg1x1": {1, 1, 8 << 10},
}

var schedGoldenLayers = map[string]model.Layer{
	"conv-rem": model.CV("conv-rem", 56, 56, 3, 3, 64, 100, 1),
	"conv-odd": model.CV("conv-odd", 31, 31, 3, 3, 17, 23, 2),
	"dw":       model.DW("dw", 28, 28, 3, 3, 32, 1),
	"fc":       model.FC("fc", 64, 512, 1000),
}

func goldenTraceDigest(t *trace.Trace) string {
	h := sha256.New()
	var buf [29]byte
	for _, a := range t.Accesses {
		binary.LittleEndian.PutUint64(buf[0:8], a.Cycle)
		binary.LittleEndian.PutUint64(buf[8:16], a.Addr)
		binary.LittleEndian.PutUint32(buf[16:20], a.Bytes)
		buf[20] = byte(a.Kind)
		buf[21] = byte(a.Class)
		buf[22] = byte(a.Tensor)
		binary.LittleEndian.PutUint16(buf[23:25], a.Layer)
		binary.LittleEndian.PutUint32(buf[25:29], a.Tile)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestScheduleGolden replays every golden case through simulateLayer
// and checks each pinned quantity.
func TestScheduleGolden(t *testing.T) {
	for _, g := range schedGolden {
		geo := schedGoldenConfigs[g.cfg]
		cfg, err := New(geo[0], geo[1], geo[2])
		if err != nil {
			t.Fatal(err)
		}
		lr := cfg.simulateLayer(schedGoldenLayers[g.layer], 1, WeightsBase+4096)
		name := g.cfg + "/" + g.layer
		if lr.ComputeCycles != g.compute {
			t.Errorf("%s: compute %d want %d", name, lr.ComputeCycles, g.compute)
		}
		df := cfg.ComputeCyclesByDataflow(&lr)
		if df[WeightStationary] != g.ws || df[OutputStationary] != g.os || df[InputStationary] != g.is {
			t.Errorf("%s: dataflow cycles ws=%d os=%d is=%d want %d/%d/%d", name,
				df[WeightStationary], df[OutputStationary], df[InputStationary], g.ws, g.os, g.is)
		}
		til := lr.Tiling
		if til.RowTiles != g.rowTiles || til.Groups != g.groups || til.Th != g.th ||
			til.Nt != g.nt || til.HaloRows != g.halo ||
			til.IfmapRunBytes != g.ifRun || til.OfmapRunBytes != g.ofRun ||
			til.IfmapResident != g.ifRes || til.WeightResident != g.wRes ||
			til.WeightPasses != g.wPasses {
			t.Errorf("%s: tiling %+v diverged from golden %+v", name, til, g)
		}
		var readBytes, writeBytes, highCycle uint64
		for _, a := range lr.Trace.Accesses {
			if a.Kind == trace.Read {
				readBytes += uint64(a.Bytes)
			} else {
				writeBytes += uint64(a.Bytes)
			}
			highCycle = max(highCycle, a.Cycle)
		}
		if accesses := uint64(lr.Trace.Len()); accesses != g.accesses || readBytes != g.readBytes ||
			writeBytes != g.writeBytes || highCycle != g.highCycle {
			t.Errorf("%s: stats acc=%d r=%d w=%d hc=%d want %d/%d/%d/%d", name,
				accesses, readBytes, writeBytes, highCycle,
				g.accesses, g.readBytes, g.writeBytes, g.highCycle)
		}
		if lr.IfmapBytes != g.ifBytes || lr.WeightBytes != g.wBytes ||
			lr.OfmapBytes != g.ofBytes || lr.HaloBytes != g.haloBytes {
			t.Errorf("%s: bytes if=%d w=%d of=%d halo=%d want %d/%d/%d/%d", name,
				lr.IfmapBytes, lr.WeightBytes, lr.OfmapBytes, lr.HaloBytes,
				g.ifBytes, g.wBytes, g.ofBytes, g.haloBytes)
		}
		if d := goldenTraceDigest(lr.Trace); d != g.traceDigest {
			t.Errorf("%s: trace digest %s want %s (an access moved)", name, d, g.traceDigest)
		}
	}
}

// TestScheduleGoldenCoversRemainders makes the coverage claims of the
// table explicit, so a future layer-zoo change cannot silently turn
// the remainder cases into aligned ones.
func TestScheduleGoldenCoversRemainders(t *testing.T) {
	edge, _ := New(32, 32, 480<<10)
	lr := edge.simulateLayer(schedGoldenLayers["fc"], 1, WeightsBase)
	if lr.Tiling.RowTiles*lr.Tiling.Th == lr.Layer.OfmapH() {
		t.Error("fc no longer has a remainder row tile on the edge geometry")
	}
	if lr.Tiling.Groups*lr.Tiling.Nt == lr.Layer.NumFilt {
		t.Error("fc no longer has a remainder filter group on the edge geometry")
	}
	deg, _ := New(1, 1, 8<<10)
	lr = deg.simulateLayer(schedGoldenLayers["conv-odd"], 1, WeightsBase)
	if lr.Tiling.Groups*lr.Tiling.Nt == lr.Layer.NumFilt {
		t.Error("conv-odd no longer has a remainder filter group on the 1x1 geometry")
	}
	if lr.Tiling.Th != 1 || lr.Tiling.RowTiles != lr.Layer.OfmapH() {
		t.Error("1x1 geometry no longer degenerates to single-row tiles")
	}
}
