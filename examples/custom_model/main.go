// Custom model: define your own network, inspect the schedule the
// systolic-array simulator picks, run the SecureLoop-style optBlk
// search per layer, and compare protection schemes on both NPUs.
//
// This is the workflow a user follows to decide how to deploy a
// proprietary model on a SeDA-protected accelerator.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/authblock"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/scalesim"
	"repro/internal/trace"
	"repro/seda"
)

func main() {
	// A small keyword-spotting CNN: two convs and two dense layers.
	custom := &model.Network{
		Name: "kws",
		Full: "keyword spotting CNN",
		Layers: []model.Layer{
			model.CV("conv1", 99, 42, 10, 4, 1, 64, 2),
			model.CV("conv2", 47, 21, 3, 3, 64, 64, 1),
			model.FC("fc1", 1, 64*45*19, 128),
			model.FC("fc2", 1, 128, 12),
		},
	}
	if err := custom.Validate(); err != nil {
		log.Fatal(err)
	}

	// Inspect the schedule and the optBlk the search picks per layer
	// on the edge NPU.
	edge := seda.EdgeNPU()
	arr, err := scalesim.New(edge.ArrayRows, edge.ArrayCols, edge.SRAMBytes)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := arr.SimulateNetwork(custom)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s — schedule and optBlk per layer (edge NPU)\n\n", custom.Full)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "layer\trow-tiles\tgroups\thalo rows\tifmap run(B)\toptBlk(B)")
	for _, lr := range sim.Layers {
		// The search reads schedule geometry: data accesses only.
		var data []trace.Access
		for _, a := range lr.Trace.Accesses {
			if a.Class == trace.Data {
				data = append(data, a)
			}
		}
		runs := authblock.NewRunSet(data)
		search := runs.Search()
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n",
			lr.Layer.Name, lr.Tiling.RowTiles, lr.Tiling.Groups,
			lr.Tiling.HaloRows, lr.Tiling.IfmapRunBytes, search.Best.Block)
	}
	w.Flush() //nolint:errcheck

	// Compare deployment cost on both platforms.
	for _, npu := range []seda.NPUConfig{seda.ServerNPU(), seda.EdgeNPU()} {
		rows, err := seda.RunNetworkOptsCtx(context.Background(), npu, custom, seda.DefaultSuiteOptions())
		if err != nil {
			log.Fatal(err)
		}
		sgx, _ := seda.SchemeRow(rows, memprot.SchemeSGX64)
		sd, _ := seda.SchemeRow(rows, memprot.SchemeSeDA)
		fmt.Printf("\n%s NPU: SGX-64B slowdown %.2f%%, SeDA slowdown %.2f%%\n",
			npu.Name, sgx.PerfOverhead()*100, sd.PerfOverhead()*100)
	}
}
