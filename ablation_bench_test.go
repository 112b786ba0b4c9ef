package repro

// Ablation benchmarks for the design choices DESIGN.md calls out:
// metadata-cache sizing and protection-block granularity (the dataflow
// ablation lives with the dataflow model in internal/scalesim). These are not paper figures; they quantify the knobs
// around SeDA's operating point.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/authblock"
	"repro/internal/dram"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/scalesim"
)

// protectOne walks a single scheme over sim. The ablations read only
// the overhead accounting, so the flat trace is never materialized.
func protectOne(s memprot.Scheme, sim *scalesim.NetworkResult, opts memprot.Options) (*memprot.Result, error) {
	rs, err := memprot.ProtectAllArenaCtx(context.Background(), []memprot.Scheme{s}, sim, opts, nil)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// trafficOverhead returns a protected run's (data+meta)/data − 1, the
// normalized memory-traffic overhead of Fig. 5.
func trafficOverhead(r *memprot.Result) float64 {
	var data, meta uint64
	for i := range r.Layers {
		data += r.Layers[i].Overhead.DataBytes
		meta += r.Layers[i].Overhead.MetaBytes()
	}
	if data == 0 {
		return 0
	}
	return float64(meta) / float64(data)
}

// BenchmarkAblationMetadataCaches sweeps the SGX VN/MAC cache sizes
// and reports the traffic overhead at each point — the sensitivity
// behind the paper's choice of 16 KB + 8 KB.
func BenchmarkAblationMetadataCaches(b *testing.B) {
	c, err := scalesim.New(32, 32, 480<<10)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := c.SimulateNetwork(model.ByName("rest"))
	if err != nil {
		b.Fatal(err)
	}
	for _, kb := range []int{4, 8, 16, 32, 64} {
		kb := kb
		b.Run(fmt.Sprintf("vn%dKB", kb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := memprot.DefaultOptions()
				opts.VNCacheBytes = kb * 1024
				opts.MACCacheBytes = kb * 512 // keep the paper's 2:1 ratio
				res, err := protectOne(memprot.SchemeSGX64, sim, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(trafficOverhead(res)*100, "sgx64-traffic-%")
			}
		})
	}
}

// BenchmarkAblationBlockGranularity sweeps fixed protection-block
// sizes through the MGX cost structure and contrasts them with
// SeDA's searched optBlk — the trade-off Table I describes.
func BenchmarkAblationBlockGranularity(b *testing.B) {
	c, err := scalesim.New(32, 32, 480<<10)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := c.SimulateNetwork(model.ByName("goo"))
	if err != nil {
		b.Fatal(err)
	}
	for _, blk := range []int{64, 128, 256, 512, 1024, 2048} {
		blk := blk
		b.Run(fmt.Sprintf("mgx%dB", blk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := protectOne(memprot.Scheme{Kind: memprot.MGX, Block: blk}, sim,
					memprot.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(trafficOverhead(res)*100, "traffic-%")
			}
		})
	}
	b.Run("seda-optblk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := protectOne(memprot.SchemeSeDA, sim, memprot.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(trafficOverhead(res)*100, "traffic-%")
		}
	})
	_ = authblock.MinBlock
}

// BenchmarkDRAMSimulator measures the DDR timing model's throughput
// in simulated bursts per second.
func BenchmarkDRAMSimulator(b *testing.B) {
	c, err := scalesim.New(32, 32, 480<<10)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := c.SimulateNetwork(model.ByName("alex"))
	if err != nil {
		b.Fatal(err)
	}
	dsim, err := dram.New(dram.DDR4Like(4))
	if err != nil {
		b.Fatal(err)
	}
	tr := sim.Layers[1].Trace
	var bytes uint64
	for _, a := range tr.Accesses {
		bytes += uint64(a.Bytes)
	}
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsim.RunOverlayCtx(context.Background(), tr, nil); err != nil {
			b.Fatal(err)
		}
	}
}
