package explore

import (
	"context"
	"testing"

	"repro/internal/memprot"
	"repro/internal/model"
	"repro/seda"
)

// BenchmarkExploreSurrogate measures the surrogate's per-point pricing
// rate: one iteration prices the full 13-workload suite for one DRAM
// geometry from prebuilt summaries — the steady-state inner loop of a
// grid sweep (summaries are built once per array geometry, so on
// memory-axis grids this is the entire marginal cost of a point).
// points/s is the figure the design-space engine's capacity planning
// cares about.
func BenchmarkExploreSurrogate(b *testing.B) {
	base := seda.EdgeNPU()
	var summaries []*workloadSummary
	for _, net := range model.All() {
		ws, err := summarizeWorkload(context.Background(), base, net, memprot.SchemeSeDA)
		if err != nil {
			b.Fatal(err)
		}
		summaries = append(summaries, ws)
	}
	m := Model{Alpha: 2.24, Beta: 0.9} // representative fit (see TestSurrogateErrorBound)

	// Cycle through distinct geometries so the decoder-friendly
	// constants are not branch-predicted into irrelevance.
	geoms := []seda.NPUConfig{base, seda.ServerNPU()}
	geoms[1].Channels = 8
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		d := geoms[i%len(geoms)].DRAMConfig()
		for _, ws := range summaries {
			layers := make([]layerTerms, len(ws.layers))
			for li := range ws.layers {
				layers[li] = terms(&ws.layers[li], d)
			}
			sink += m.execEstimate(layers)
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("estimate collapsed to zero")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "points/s")
}
