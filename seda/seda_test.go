package seda

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/memprot"
	"repro/internal/model"
)

func TestNPUConfigsMatchTableII(t *testing.T) {
	s := ServerNPU()
	if s.ArrayRows != 256 || s.ArrayCols != 256 {
		t.Errorf("server array %dx%d, want 256x256", s.ArrayRows, s.ArrayCols)
	}
	if s.SRAMBytes != 24*1024*1024 {
		t.Errorf("server SRAM %d, want 24MB", s.SRAMBytes)
	}
	if s.FreqHz != 1e9 || s.BandwidthB != 20e9 || s.Channels != 4 {
		t.Errorf("server mem config wrong: %+v", s)
	}
	e := EdgeNPU()
	if e.ArrayRows != 32 || e.ArrayCols != 32 {
		t.Errorf("edge array %dx%d, want 32x32", e.ArrayRows, e.ArrayCols)
	}
	if e.SRAMBytes != 480*1024 {
		t.Errorf("edge SRAM %d, want 480KB", e.SRAMBytes)
	}
	if e.FreqHz != 2.75e9 || e.BandwidthB != 10e9 || e.Channels != 4 {
		t.Errorf("edge mem config wrong: %+v", e)
	}
}

func TestNPUValidate(t *testing.T) {
	bad := ServerNPU()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero channels validated")
	}
	bad = EdgeNPU()
	bad.SRAMBytes = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative SRAM validated")
	}
}

func TestDRAMTimingDerivation(t *testing.T) {
	// Server: 20 GB/s over 4 channels at 1 GHz -> 64B burst in
	// 64/(5e9) s = 12.8 accelerator cycles.
	cfg := ServerNPU().DRAMConfig()
	if cfg.TBurst != 12 {
		t.Errorf("server TBurst = %d, want 12 (12.8 truncated)", cfg.TBurst)
	}
	// Edge: 2.5 GB/s per channel at 2.75 GHz -> 70.4 cycles.
	cfg = EdgeNPU().DRAMConfig()
	if cfg.TBurst != 70 {
		t.Errorf("edge TBurst = %d, want 70", cfg.TBurst)
	}
	if cfg.TCL <= ServerNPU().DRAMConfig().TCL {
		t.Error("edge CAS latency (in faster clocks) should exceed server's")
	}
}

func TestRunNetworkRowShape(t *testing.T) {
	rows, err := RunNetworkOptsCtx(context.Background(), EdgeNPU(), model.ByName("let"), DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 schemes", len(rows))
	}
	base, err := SchemeRow(rows, memprot.SchemeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if base.NormTraffic != 1.0 || base.NormPerf != 1.0 {
		t.Errorf("baseline normalized to %.3f/%.3f, want 1/1", base.NormTraffic, base.NormPerf)
	}
	for _, r := range rows {
		if r.NormTraffic < 1.0 {
			t.Errorf("%s: traffic %.4f below baseline", r.Scheme.Name(), r.NormTraffic)
		}
		if r.NormPerf > 1.0+1e-9 {
			t.Errorf("%s: performance %.4f above baseline", r.Scheme.Name(), r.NormPerf)
		}
		if r.ExecCycles < r.ComputeCycles {
			t.Errorf("%s: exec %d below compute bound %d", r.Scheme.Name(), r.ExecCycles, r.ComputeCycles)
		}
	}
}

// TestPaperShapeBands checks the qualitative reproduction targets on a
// representative workload subset (full-suite numbers live in
// EXPERIMENTS.md and the benches): overhead ordering and rough
// magnitudes per Fig. 5/6.
func TestPaperShapeBands(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second DRAM simulation")
	}
	for _, npu := range []NPUConfig{ServerNPU(), EdgeNPU()} {
		for _, wl := range []string{"alex", "rest"} {
			rows, err := RunNetworkOptsCtx(context.Background(), npu, model.ByName(wl), DefaultSuiteOptions())
			if err != nil {
				t.Fatal(err)
			}
			get := func(s memprot.Scheme) RunResult {
				r, err := SchemeRow(rows, s)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			sgx64 := get(memprot.SchemeSGX64)
			mgx64 := get(memprot.SchemeMGX64)
			sgx512 := get(memprot.SchemeSGX512)
			mgx512 := get(memprot.SchemeMGX512)
			sd := get(memprot.SchemeSeDA)

			// Fig. 5 magnitudes: SGX-64B ~+30%, MGX-64B ~+12.5%,
			// SeDA near zero.
			if o := sgx64.TrafficOverhead(); o < 0.20 || o > 0.45 {
				t.Errorf("%s/%s: SGX-64B traffic overhead %.3f outside [0.20,0.45]", npu.Name, wl, o)
			}
			if o := mgx64.TrafficOverhead(); o < 0.11 || o > 0.16 {
				t.Errorf("%s/%s: MGX-64B traffic overhead %.3f outside [0.11,0.16]", npu.Name, wl, o)
			}
			if o := sd.TrafficOverhead(); o > 0.01 {
				t.Errorf("%s/%s: SeDA traffic overhead %.4f above 1%%", npu.Name, wl, o)
			}

			// Ordering within each family and across granularities.
			if sgx64.NormTraffic < mgx64.NormTraffic ||
				sgx512.NormTraffic < mgx512.NormTraffic ||
				sgx64.NormTraffic < sgx512.NormTraffic ||
				mgx64.NormTraffic < mgx512.NormTraffic ||
				mgx512.NormTraffic < sd.NormTraffic {
				t.Errorf("%s/%s: traffic ordering violated", npu.Name, wl)
			}

			// Fig. 6: SGX-64B slows down 15-30%, SeDA < 1%.
			if o := sgx64.PerfOverhead(); o < 0.12 || o > 0.35 {
				t.Errorf("%s/%s: SGX-64B slowdown %.3f outside [0.12,0.35]", npu.Name, wl, o)
			}
			if o := sd.PerfOverhead(); o > 0.01 {
				t.Errorf("%s/%s: SeDA slowdown %.4f above 1%%", npu.Name, wl, o)
			}
			if sd.NormPerf < mgx512.NormPerf || mgx512.NormPerf < mgx64.NormPerf ||
				sgx512.NormPerf < sgx64.NormPerf {
				t.Errorf("%s/%s: performance ordering violated", npu.Name, wl)
			}
		}
	}
}

func TestSuiteTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second DRAM simulation")
	}
	suite, err := RunSuiteOptsCtx(context.Background(), EdgeNPU(), []*model.Network{
		model.ByName("let"), model.ByName("ncf"), model.ByName("sent"),
	}, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	suite.WriteTrafficTable(&buf)
	out := buf.String()
	for _, want := range []string{"let", "ncf", "sent", "avg", "SGX-64B", "SeDA", "Baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("traffic table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	suite.WritePerfTable(&buf)
	if !strings.Contains(buf.String(), "Norm. Performance") {
		t.Error("perf table missing title")
	}

	if names := suite.Workloads(); len(names) != 3 || names[0] != "let" {
		t.Errorf("workload order wrong: %v", names)
	}
}

func TestSuiteAverages(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second DRAM simulation")
	}
	suite, err := RunSuiteOptsCtx(context.Background(), EdgeNPU(), []*model.Network{
		model.ByName("let"), model.ByName("dlrm"),
	}, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if avg := suite.AvgNormTraffic(memprot.SchemeBaseline); avg != 1.0 {
		t.Errorf("baseline avg traffic %.4f != 1", avg)
	}
	if avg := suite.AvgNormPerf(memprot.SchemeBaseline); avg != 1.0 {
		t.Errorf("baseline avg perf %.4f != 1", avg)
	}
	if suite.AvgNormTraffic(memprot.SchemeSGX64) <= suite.AvgNormTraffic(memprot.SchemeSeDA) {
		t.Error("SGX-64B avg traffic not above SeDA's")
	}
	if suite.HeadlineImprovement() <= 0 {
		t.Error("headline improvement not positive")
	}
}

func TestRunNetworkRejectsBadConfig(t *testing.T) {
	bad := ServerNPU()
	bad.FreqHz = 0
	if _, err := RunNetworkOptsCtx(context.Background(), bad, model.ByName("let"), DefaultSuiteOptions()); err == nil {
		t.Error("bad NPU config accepted")
	}
}

func TestSchemeRowMissing(t *testing.T) {
	if _, err := SchemeRow(nil, memprot.SchemeSeDA); err == nil {
		t.Error("missing scheme did not error")
	}
}
