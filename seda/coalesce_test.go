package seda

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/trace"
)

// TestCoalescedOverlaysDRAMEquivalence is the coalescing invariant's
// property test at pipeline scale: for both NPUs and all six schemes,
// a scheme's coalesced overlay must drive the DRAM model to
// bit-identical Stats as the raw (uncoalesced) overlay, layer by
// layer. It also asserts the coalescing actually bites — the SGX
// schemes' metadata-heavy overlays must shrink — so the equivalence is
// never trivially satisfied by coalescing nothing.
func TestCoalescedOverlaysDRAMEquivalence(t *testing.T) {
	rawOpts := memprot.DefaultOptions()
	rawOpts.CoalesceOverlays = false
	coalOpts := memprot.DefaultOptions()
	if !coalOpts.CoalesceOverlays {
		t.Fatal("DefaultOptions must enable coalescing")
	}

	for _, npu := range []NPUConfig{ServerNPU(), EdgeNPU()} {
		for _, name := range []string{"ncf", "let"} {
			net := model.ByName(name)
			if net == nil {
				t.Fatalf("unknown workload %q", name)
			}
			arr, err := npu.arrayConfig()
			if err != nil {
				t.Fatal(err)
			}
			sim, err := arr.SimulateNetwork(net)
			if err != nil {
				t.Fatal(err)
			}
			raws, err := memprot.ProtectAllArenaCtx(context.Background(), Schemes(), sim, rawOpts, nil)
			if err != nil {
				t.Fatal(err)
			}
			coals, err := memprot.ProtectAllArenaCtx(context.Background(), Schemes(), sim, coalOpts, nil)
			if err != nil {
				t.Fatal(err)
			}
			var sgxShrunk bool
			for k := range raws {
				scheme := raws[k].Scheme
				var rawLen, coalLen int
				for i := range raws[k].Layers {
					rpl := &raws[k].Layers[i]
					cpl := &coals[k].Layers[i]
					rawLen += rpl.Deltas.Len()
					coalLen += cpl.Deltas.Len()
					if rpl.Overhead != cpl.Overhead {
						t.Errorf("%s/%s/%s layer %d: overhead diverged: raw %+v coalesced %+v",
							npu.Name, name, scheme.Name(), i, rpl.Overhead, cpl.Overhead)
					}
					a, err := dram.New(npu.DRAMConfig())
					if err != nil {
						t.Fatal(err)
					}
					b, err := dram.New(npu.DRAMConfig())
					if err != nil {
						t.Fatal(err)
					}
					want, err := a.RunOverlayCtx(context.Background(), rpl.Spine, rpl.Deltas)
					if err != nil {
						t.Fatal(err)
					}
					got, err := b.RunOverlayCtx(context.Background(), cpl.Spine, cpl.Deltas)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s/%s layer %d: coalesced stats %+v != raw %+v",
							npu.Name, name, scheme.Name(), i, got, want)
					}
				}
				if coalLen > rawLen {
					t.Errorf("%s/%s/%s: coalesced overlay larger than raw (%d > %d)",
						npu.Name, name, scheme.Name(), coalLen, rawLen)
				}
				if scheme.Kind == memprot.SGX && coalLen < rawLen {
					sgxShrunk = true
				}
			}
			if !sgxShrunk {
				t.Errorf("%s/%s: no SGX overlay shrank — coalescing never fired", npu.Name, name)
			}
		}
	}
}

// TestCoalescedMaterializedTraceConserved: flattening a coalesced
// overlay yields the same byte totals per class as the raw one, so
// trace-level consumers (stats, dumps) agree on every aggregate even
// though entry counts differ.
func TestCoalescedMaterializedTraceConserved(t *testing.T) {
	rawOpts := memprot.DefaultOptions()
	rawOpts.CoalesceOverlays = false

	npu := EdgeNPU()
	net := model.ByName("ncf")
	arr, err := npu.arrayConfig()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := arr.SimulateNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	raws, err := memprot.ProtectAllArenaCtx(context.Background(), Schemes(), sim, rawOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	coals, err := memprot.ProtectAllArenaCtx(context.Background(), Schemes(), sim, memprot.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range raws {
		for i := range raws[k].Layers {
			rst := raws[k].Layers[i].Materialize().ComputeStats()
			cst := coals[k].Layers[i].Materialize().ComputeStats()
			if rst.BytesByClass != cst.BytesByClass ||
				rst.ReadBytes != cst.ReadBytes || rst.WriteBytes != cst.WriteBytes ||
				rst.HighestCycle != cst.HighestCycle {
				t.Errorf("%s layer %d: materialized totals diverged:\nraw  %+v\ncoal %+v",
					raws[k].Scheme.Name(), i, rst, cst)
			}
		}
	}
}

// TestRunNetworkMatchesRawOverlays pins the end-to-end figure
// equivalence the coalescing claims: RunNetworkOptsCtx (which evaluates
// with DefaultOptions, coalescing on) must produce rows identical to
// an evaluation forced through raw overlays.
func TestRunNetworkMatchesRawOverlays(t *testing.T) {
	npu := EdgeNPU()
	net := model.ByName("ncf")
	rows, err := RunNetworkOptsCtx(context.Background(), npu, net, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Re-evaluate by hand with raw overlays, mirroring runScheme.
	rawOpts := memprot.DefaultOptions()
	rawOpts.CoalesceOverlays = false
	arr, err := npu.arrayConfig()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := arr.SimulateNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	raws, err := memprot.ProtectAllArenaCtx(context.Background(), Schemes(), sim, rawOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, prot := range raws {
		dsim, err := dram.New(npu.DRAMConfig())
		if err != nil {
			t.Fatal(err)
		}
		var exec uint64
		var data, meta uint64
		for i := range prot.Layers {
			pl := &prot.Layers[i]
			st, err := dsim.RunOverlayCtx(context.Background(), pl.Spine, pl.Deltas)
			if err != nil {
				t.Fatal(err)
			}
			layerCycles := st.Cycles
			if c := sim.Layers[i].ComputeCycles; c > layerCycles {
				layerCycles = c
			}
			exec += layerCycles
			data += pl.Overhead.DataBytes
			meta += pl.Overhead.MetaBytes()
		}
		if rows[k].ExecCycles != exec || rows[k].DataBytes != data || rows[k].MetaBytes != meta {
			t.Errorf("%s: coalesced pipeline row (exec=%d data=%d meta=%d) != raw re-evaluation (exec=%d data=%d meta=%d)",
				prot.Scheme.Name(), rows[k].ExecCycles, rows[k].DataBytes, rows[k].MetaBytes, exec, data, meta)
		}
	}
}

// trace import keeps the coalescing quantum visible to this test: the
// DRAM burst size of both NPUs must divide it, or the invariant the
// equivalence rests on would not apply.
func TestCoalesceQuantumCoversNPUBursts(t *testing.T) {
	for _, npu := range []NPUConfig{ServerNPU(), EdgeNPU()} {
		if trace.CoalesceQuantum%npu.DRAMConfig().BurstBytes != 0 {
			t.Errorf("%s: burst %dB does not divide the coalescing quantum %dB",
				npu.Name, npu.DRAMConfig().BurstBytes, trace.CoalesceQuantum)
		}
	}
}
