// Benchmarks regenerating every table and figure of the paper's
// evaluation (§IV). Each figure bench runs the full 13-workload suite
// through the complete pipeline (systolic-array schedule → protection
// scheme → DRAM timing) and reports the figure's headline numbers as
// benchmark metrics; suite results are cached across benches within a
// run so Fig. 5 and Fig. 6 share their sweeps.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem .
package repro

import (
	"context"
	"sync"
	"testing"

	"repro/internal/aesx"
	"repro/internal/attack"
	"repro/internal/authblock"
	"repro/internal/hwmodel"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/scalesim"
	"repro/seda"
)

var (
	suiteOnce   sync.Once
	suiteServer *seda.SuiteResult
	suiteEdge   *seda.SuiteResult
	suiteErr    error
)

// suites runs the two full sweeps once per test binary.
func suites(b *testing.B) (*seda.SuiteResult, *seda.SuiteResult) {
	b.Helper()
	suiteOnce.Do(func() {
		suiteServer, suiteErr = seda.RunSuiteOptsCtx(context.Background(), seda.ServerNPU(), model.All(), seda.DefaultSuiteOptions())
		if suiteErr != nil {
			return
		}
		suiteEdge, suiteErr = seda.RunSuiteOptsCtx(context.Background(), seda.EdgeNPU(), model.All(), seda.DefaultSuiteOptions())
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteServer, suiteEdge
}

// BenchmarkFig1dMotivation regenerates Fig. 1(d): traffic and
// execution-time overhead of a typical secure accelerator (SGX-64B)
// across the workloads on the server NPU.
func BenchmarkFig1dMotivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		srv, _ := suites(b)
		var tSum, eSum float64
		n := 0
		for _, name := range srv.Workloads() {
			r, err := seda.SchemeRow(srv.Rows[name], memprot.SchemeSGX64)
			if err != nil {
				b.Fatal(err)
			}
			tSum += r.TrafficOverhead()
			eSum += r.PerfOverhead()
			n++
		}
		b.ReportMetric(tSum/float64(n)*100, "traffic-overhead-%")
		b.ReportMetric(eSum/float64(n)*100, "exec-overhead-%")
	}
}

// BenchmarkFig4AreaPower regenerates Fig. 4: T-AES vs B-AES area and
// power across bandwidth multiples 1-8x at 28 nm.
func BenchmarkFig4AreaPower(b *testing.B) {
	h := hwmodel.Default28nm()
	for i := 0; i < b.N; i++ {
		taes, baes := h.Sweep(8)
		if len(taes) != 8 || len(baes) != 8 {
			b.Fatal("sweep shape wrong")
		}
		b.ReportMetric(taes[7].AreaUm2, "taes-area-um2@8x")
		b.ReportMetric(baes[7].AreaUm2, "baes-area-um2@8x")
		b.ReportMetric(taes[7].PowerUw, "taes-power-uw@8x")
		b.ReportMetric(baes[7].PowerUw, "baes-power-uw@8x")
	}
}

// reportFig5 emits the average normalized-traffic overheads (the
// "avg" bars of Fig. 5) as metrics.
func reportFig5(b *testing.B, s *seda.SuiteResult) {
	b.ReportMetric((s.AvgNormTraffic(memprot.SchemeSGX64)-1)*100, "sgx64-traffic-%")
	b.ReportMetric((s.AvgNormTraffic(memprot.SchemeMGX64)-1)*100, "mgx64-traffic-%")
	b.ReportMetric((s.AvgNormTraffic(memprot.SchemeSGX512)-1)*100, "sgx512-traffic-%")
	b.ReportMetric((s.AvgNormTraffic(memprot.SchemeMGX512)-1)*100, "mgx512-traffic-%")
	b.ReportMetric((s.AvgNormTraffic(memprot.SchemeSeDA)-1)*100, "seda-traffic-%")
}

// BenchmarkFig5ServerTraffic regenerates Fig. 5(a).
func BenchmarkFig5ServerTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		srv, _ := suites(b)
		reportFig5(b, srv)
	}
}

// BenchmarkFig5EdgeTraffic regenerates Fig. 5(b).
func BenchmarkFig5EdgeTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, edg := suites(b)
		reportFig5(b, edg)
	}
}

// reportFig6 emits the average slowdowns (the "avg" bars of Fig. 6).
func reportFig6(b *testing.B, s *seda.SuiteResult) {
	b.ReportMetric((1-s.AvgNormPerf(memprot.SchemeSGX64))*100, "sgx64-slowdown-%")
	b.ReportMetric((1-s.AvgNormPerf(memprot.SchemeMGX64))*100, "mgx64-slowdown-%")
	b.ReportMetric((1-s.AvgNormPerf(memprot.SchemeSGX512))*100, "sgx512-slowdown-%")
	b.ReportMetric((1-s.AvgNormPerf(memprot.SchemeMGX512))*100, "mgx512-slowdown-%")
	b.ReportMetric((1-s.AvgNormPerf(memprot.SchemeSeDA))*100, "seda-slowdown-%")
	b.ReportMetric(s.HeadlineImprovement(), "seda-vs-sgx64-pp")
}

// BenchmarkFig6ServerPerf regenerates Fig. 6(a).
func BenchmarkFig6ServerPerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		srv, _ := suites(b)
		reportFig6(b, srv)
	}
}

// BenchmarkFig6EdgePerf regenerates Fig. 6(b).
func BenchmarkFig6EdgePerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, edg := suites(b)
		reportFig6(b, edg)
	}
}

// BenchmarkTable1Granularity builds Table I (qualitative; the bench
// exists so every table has a regeneration target).
func BenchmarkTable1Granularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := seda.Schemes() // plot-order schemes, used by Table III too
		if len(rows) != 6 {
			b.Fatal("scheme list wrong")
		}
	}
}

// BenchmarkTable3Features builds Table III's feature matrix.
func BenchmarkTable3Features(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range seda.Schemes() {
			f := s.FeatureRow()
			if f.EncryptionGranularity == "" {
				b.Fatal("empty feature row")
			}
		}
	}
}

// --- Ablation and micro-benchmarks for the design choices DESIGN.md
// calls out. ---

// BenchmarkAblationOptBlkSearch compares the searched optBlk cost
// against fixed 64B/512B granularities on a real layer schedule.
func BenchmarkAblationOptBlkSearch(b *testing.B) {
	cfg, err := scalesim.New(32, 32, 480*1024)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := cfg.SimulateNetwork(model.ByName("rest"))
	if err != nil {
		b.Fatal(err)
	}
	tr := sim.Layers[1].Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := authblock.NewRunSet(tr.Accesses)
		r := rs.Search()
		f64 := rs.Evaluate(64)
		f512 := rs.Evaluate(512)
		b.ReportMetric(float64(r.Best.Total()), "optblk-cost-B")
		b.ReportMetric(float64(f64.Total()), "fixed64-cost-B")
		b.ReportMetric(float64(f512.Total()), "fixed512-cost-B")
	}
}

// BenchmarkAESEngine measures the AES-128 block rate of the engine's
// crypto/aes cipher.
func BenchmarkAESEngine(b *testing.B) {
	e, err := aesx.NewEngine([]byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	var in, out [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		e.EncryptBlock(out[:], in[:])
	}
}

// BenchmarkBAESvsTAESPads compares the pads for one 512-byte block:
// B-AES (one OTP XORed with the 11 round keys, plus a KeyExpansion and
// an OTP per extension lane of 11 more pads) against T-AES (32 AES
// ops). With hardware AES, B-AES is the slower of the two in software:
// on a 2-vCPU Intel Xeon, T-AES takes about 3.3 µs per block and B-AES
// 4.6-6.3 µs, because the extension lanes rerun KeyExpansion in Go.
// Fig. 4's savings come from hwmodel's area/power model, not from this
// benchmark.
func BenchmarkBAESvsTAESPads(b *testing.B) {
	eng, err := aesx.NewBAES([]byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	c := aesx.Counter{PA: 0x1000, VN: 1}
	b.Run("B-AES", func(b *testing.B) {
		buf := make([]byte, 512)
		b.SetBytes(512)
		for i := 0; i < b.N; i++ {
			eng.XORSegments(buf, buf, c)
		}
	})
	b.Run("T-AES", func(b *testing.B) {
		buf := make([]byte, 512)
		b.SetBytes(512)
		for i := 0; i < b.N; i++ {
			eng.Engine().XORKeyStreamCTR(buf, buf, c)
		}
	})
}

// BenchmarkSECA measures the attack's frequency analysis (it must be
// cheap for the attack model to be credible).
func BenchmarkSECA(b *testing.B) {
	eng, err := aesx.NewBAES([]byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	pt := attack.SparseTensor(4096, 89, 3)
	ct := attack.EncryptSharedPad(eng, pt, aesx.Counter{PA: 1, VN: 1})
	var zeros [16]byte
	b.SetBytes(int64(len(ct)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attack.RunSECA(ct, pt, zeros)
	}
}
