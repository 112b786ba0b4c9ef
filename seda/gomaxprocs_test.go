package seda

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/model"
)

// TestSuiteWorkerPoolSharedArenas runs a two-worker suite over two
// small workloads with no testing.Short() skip, so the `-race -short`
// CI job exercises concurrent RunNetworkOptsCtx calls, each running six
// concurrent scheme drains, sharing the process-wide memprot overlay
// arena and dram queue arena — the paths an unsynchronized arena would
// corrupt. Results must still match the one-workload-at-a-time run.
func TestSuiteWorkerPoolSharedArenas(t *testing.T) {
	nets := []*model.Network{model.ByName("let"), model.ByName("ncf")}
	npu := EdgeNPU()
	par, err := RunSuiteOptsCtx(context.Background(), npu, nets, SuiteOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := RunSuiteOptsCtx(context.Background(), npu, nets, SequentialOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.Rows, seq.Rows) {
		t.Error("worker-pool rows differ from the one-worker reference")
	}
}

// withGOMAXPROCS runs fn with GOMAXPROCS set to procs, restoring the
// previous setting afterwards.
func withGOMAXPROCS(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestSuiteDeterminismAcrossGOMAXPROCS re-checks the determinism
// contract under real parallelism settings, so a scheduling-order
// dependence that needs more than one P to surface cannot slip
// through. Every (GOMAXPROCS, Workers) pair must reproduce the
// single-threaded, one-workload-at-a-time JSON byte for byte.
func TestSuiteDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second DRAM simulation")
	}
	nets := []*model.Network{model.ByName("let"), model.ByName("ncf")}
	npu := EdgeNPU()

	var want []byte
	withGOMAXPROCS(1, func() { want = runSuiteJSON(t, npu, nets, 1) })
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			withGOMAXPROCS(procs, func() {
				for _, workers := range workerCounts {
					if got := runSuiteJSON(t, npu, nets, workers); !bytes.Equal(got, want) {
						t.Errorf("Workers=%d: suite JSON differs from the single-threaded reference", workers)
					}
				}
			})
		})
	}
}
