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

// TestSuiteWorkerPoolSharedArenas runs a suite over two small
// workloads at GOMAXPROCS 2, so two workers, with no testing.Short()
// skip, so the `-race -short` CI job exercises concurrent
// RunNetworkOptsCtx calls — the pipeline's only level of parallelism —
// sharing the process-wide memprot overlay arena and dram queue arena,
// the paths an unsynchronized arena would corrupt. Results must still
// match the GOMAXPROCS 1 run, which evaluates one workload at a time.
func TestSuiteWorkerPoolSharedArenas(t *testing.T) {
	nets := []*model.Network{model.ByName("let"), model.ByName("ncf")}
	npu := EdgeNPU()
	run := func(procs int) *SuiteResult {
		var suite *SuiteResult
		withGOMAXPROCS(procs, func() {
			var err error
			if suite, err = RunSuiteOptsCtx(context.Background(), npu, nets, DefaultSuiteOptions()); err != nil {
				t.Fatal(err)
			}
		})
		return suite
	}
	par, seq := run(2), run(1)
	if !reflect.DeepEqual(par.Rows, seq.Rows) {
		t.Error("two-worker rows differ from the one-worker reference")
	}
}

// withGOMAXPROCS runs fn with GOMAXPROCS set to procs, restoring the
// previous setting afterwards.
func withGOMAXPROCS(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestSuiteDeterminismAcrossGOMAXPROCS checks the determinism
// contract that lets the workload pool follow GOMAXPROCS: under real
// parallelism settings, with three workloads so that a pool of two
// hands one worker a second workload, the suite JSON must reproduce
// the single-threaded run byte for byte. A scheduling-order dependence
// that needs more than one P to surface cannot slip through, and the
// GOMAXPROCS=1 case checks that a rerun over warm process-wide arenas
// and caches matches the first run.
func TestSuiteDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second DRAM simulation")
	}
	nets := []*model.Network{model.ByName("let"), model.ByName("ncf"), model.ByName("sent")}
	npu := EdgeNPU()

	var want []byte
	withGOMAXPROCS(1, func() { want = runSuiteJSON(t, npu, nets) })
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			withGOMAXPROCS(procs, func() {
				if got := runSuiteJSON(t, npu, nets); !bytes.Equal(got, want) {
					t.Error("suite JSON differs from the single-threaded reference")
				}
			})
		})
	}
}

// runSuiteJSON evaluates nets on npu and returns the suite's canonical
// JSON.
func runSuiteJSON(t *testing.T, npu NPUConfig, nets []*model.Network) []byte {
	t.Helper()
	suite, err := RunSuiteOptsCtx(context.Background(), npu, nets, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := suite.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
