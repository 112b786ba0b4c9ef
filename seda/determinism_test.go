package seda

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/model"
)

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

// TestRunNetworkOptsSequentialMatches covers the single-network entry
// point seda-sim uses: its rows serialize to the same bytes whether
// the six scheme goroutines share one P or run in parallel.
func TestRunNetworkOptsSequentialMatches(t *testing.T) {
	npu := EdgeNPU()
	net := model.ByName("let")
	rowsJSON := func() []byte {
		rows, err := RunNetworkOptsCtx(context.Background(), npu, net, DefaultSuiteOptions())
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
	withGOMAXPROCS(1, func() { want = rowsJSON() })
	for _, procs := range []int{2, 8} {
		withGOMAXPROCS(procs, func() {
			if got := rowsJSON(); !bytes.Equal(got, want) {
				t.Errorf("GOMAXPROCS=%d: rows differ from the single-threaded run:\n got %s\nwant %s",
					procs, got, want)
			}
		})
	}
}
