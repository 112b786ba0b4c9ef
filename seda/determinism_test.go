package seda

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/model"
)

// workerCounts are the pool sizes every determinism test compares: one
// workload at a time, a fixed two-worker pool, and the GOMAXPROCS
// default.
var workerCounts = []int{1, 2, 0}

// runSuiteJSON evaluates nets on npu with the given worker count and
// returns the suite's canonical JSON.
func runSuiteJSON(t *testing.T, npu NPUConfig, nets []*model.Network, workers int) []byte {
	t.Helper()
	suite, err := RunSuiteOptsCtx(context.Background(), npu, nets, SuiteOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := suite.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSuiteDeterminism asserts that every worker-pool size produces
// byte-identical suite JSON to the one-workload-at-a-time run. This is
// the contract that lets every consumer default to the GOMAXPROCS pool.
func TestSuiteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second DRAM simulation")
	}
	nets := []*model.Network{
		model.ByName("let"), model.ByName("ncf"), model.ByName("sent"),
	}
	npu := EdgeNPU()
	want := runSuiteJSON(t, npu, nets, 1)
	for _, workers := range workerCounts[1:] {
		if got := runSuiteJSON(t, npu, nets, workers); !bytes.Equal(got, want) {
			t.Errorf("Workers=%d: suite JSON differs from Workers=1:\n got %s\nwant %s", workers, got, want)
		}
	}
}

// TestRunNetworkOptsSequentialMatches covers the single-network entry
// point seda-sim uses: its rows serialize to the same bytes whether
// the six scheme goroutines share one P or run in parallel, under
// every worker-count option.
func TestRunNetworkOptsSequentialMatches(t *testing.T) {
	npu := EdgeNPU()
	net := model.ByName("let")
	rowsJSON := func(workers int) []byte {
		rows, err := RunNetworkOptsCtx(context.Background(), npu, net, SuiteOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var want []byte
	withGOMAXPROCS(1, func() { want = rowsJSON(1) })
	for _, procs := range []int{1, 2, 8} {
		withGOMAXPROCS(procs, func() {
			for _, workers := range workerCounts {
				if got := rowsJSON(workers); !bytes.Equal(got, want) {
					t.Errorf("GOMAXPROCS=%d Workers=%d: rows differ from the single-threaded run:\n got %s\nwant %s",
						procs, workers, got, want)
				}
			}
		})
	}
}
