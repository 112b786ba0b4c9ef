package repro

// Cross-module integration tests: the functional protection unit, the
// reference executor, the timing pipeline and the attack machinery
// exercised together. These are the repository-level invariants from
// DESIGN.md §6.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/nnexec"
	"repro/internal/scalesim"
	"repro/internal/secinfer"
	"repro/seda"
)

var (
	itEncKey = []byte("0123456789abcdef")
	itMacKey = []byte("integration-mac-key")
)

// TestIntegrationBitExactSecureInference: a protected inference is
// bit-identical to an unprotected one across several networks, block
// sizes and seeds.
func TestIntegrationBitExactSecureInference(t *testing.T) {
	nets := []*model.Network{
		model.LeNet(),
		{
			Name: "mixed", Full: "mixed-kind net",
			Layers: []model.Layer{
				model.CV("c1", 10, 10, 3, 3, 2, 8, 1),
				model.DW("d1", 8, 8, 3, 3, 8, 1),
				model.CV("p1", 6, 6, 1, 1, 8, 4, 1),
				model.FC("fc", 1, 144, 5),
			},
		},
	}
	for _, net := range nets {
		for _, optBlk := range []int{64, 256, 1024} {
			p, err := secinfer.New(net, itEncKey, itMacKey, 99, optBlk)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Provision(); err != nil {
				t.Fatal(err)
			}
			l0 := net.Layers[0]
			in := nnexec.NewTensor(l0.IfmapH, l0.IfmapW, l0.Channels)
			rand.New(rand.NewSource(5)).Read(in.Data) //nolint:errcheck
			inCopy := nnexec.NewTensor(l0.IfmapH, l0.IfmapW, l0.Channels)
			copy(inCopy.Data, in.Data)

			prot, err := p.Infer(in)
			if err != nil {
				t.Fatalf("%s optBlk=%d: %v", net.Name, optBlk, err)
			}
			ref, err := p.ReferenceInfer(inCopy)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(prot.Data, ref.Data) {
				t.Errorf("%s optBlk=%d: protected != reference", net.Name, optBlk)
			}
		}
	}
}

// TestIntegrationTrafficOrderingFullSuiteServer: the Fig. 5 ordering
// holds on every workload on the server NPU (the edge variant is
// covered in memprot's tests).
func TestIntegrationTrafficOrderingFullSuiteServer(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite simulation")
	}
	cfg, err := scalesim.New(256, 256, 24<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range model.All() {
		sim, err := cfg.SimulateNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		prots, err := memprot.ProtectAllArenaCtx(context.Background(), memprot.AllSchemes(), sim, memprot.DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		oh := map[string]float64{}
		for _, res := range prots {
			oh[res.Scheme.Name()] = trafficOverhead(res)
		}
		order := []string{"SGX-64B", "MGX-64B", "MGX-512B", "SeDA", "Baseline"}
		for i := 0; i+1 < len(order); i++ {
			if oh[order[i]] < oh[order[i+1]] {
				t.Errorf("%s: %s (%.4f) < %s (%.4f)",
					n.Name, order[i], oh[order[i]], order[i+1], oh[order[i+1]])
			}
		}
	}
}

// TestIntegrationTimingAndFunctionalAgreeOnOptBlk: the optBlk the
// timing path picks for a layer is usable by the functional unit
// (positive, at least the hardware minimum).
func TestIntegrationTimingAndFunctionalAgreeOnOptBlk(t *testing.T) {
	cfg, err := scalesim.New(32, 32, 480<<10)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cfg.SimulateNetwork(model.LeNet())
	if err != nil {
		t.Fatal(err)
	}
	prots, err := memprot.ProtectAllArenaCtx(context.Background(), []memprot.Scheme{memprot.SchemeSeDA}, sim, memprot.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prot := prots[0]
	p, err := secinfer.New(model.LeNet(), itEncKey, itMacKey, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Provision(); err != nil {
		t.Fatal(err)
	}
	for _, pl := range prot.Layers {
		if pl.Overhead.OptBlk < 64 {
			t.Errorf("layer %d optBlk %d below hardware minimum", pl.LayerID, pl.Overhead.OptBlk)
		}
	}
}

// TestIntegrationSeDABeatsAllPriorSchemesEverywhere: on every
// (workload, NPU) pair of a representative subset, SeDA has both the
// least traffic and the least slowdown among protection schemes.
func TestIntegrationSeDABeatsAllPriorSchemesEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second DRAM simulation")
	}
	for _, npu := range []seda.NPUConfig{seda.ServerNPU(), seda.EdgeNPU()} {
		for _, wl := range []string{"let", "dlrm", "trf"} {
			rows, err := seda.RunNetworkOptsCtx(context.Background(), npu, model.ByName(wl), seda.DefaultSuiteOptions())
			if err != nil {
				t.Fatal(err)
			}
			sd, err := seda.SchemeRow(rows, memprot.SchemeSeDA)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r.Scheme.Kind == memprot.Baseline || r.Scheme.Kind == memprot.SeDA {
					continue
				}
				if sd.NormTraffic > r.NormTraffic {
					t.Errorf("%s/%s: SeDA traffic %.4f above %s %.4f",
						npu.Name, wl, sd.NormTraffic, r.Scheme.Name(), r.NormTraffic)
				}
				if sd.NormPerf < r.NormPerf {
					t.Errorf("%s/%s: SeDA perf %.4f below %s %.4f",
						npu.Name, wl, sd.NormPerf, r.Scheme.Name(), r.NormPerf)
				}
			}
		}
	}
}
