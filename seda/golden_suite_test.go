package seda

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
)

// TestSuiteJSONGolden byte-compares the full 13-workload suite JSON of
// both Table II presets against goldens captured immediately before
// the parametric-platform refactor (PipelineVersion "3"). Only the
// pipeline_version metadata line is allowed to differ — the rows, the
// averages and the headline must be byte-identical, which is the
// refactor's core promise: opening the config space moved no figure.
//
// Regenerating the goldens requires deliberately re-capturing both
// files; there is no update flag, so an accidental figure change
// cannot be "fixed" by rerunning the test.
func TestSuiteJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-NPU sweep in -short mode")
	}
	for _, npu := range NPUPresets() {
		npu := npu
		t.Run(npu.Name, func(t *testing.T) {
			t.Parallel()
			golden, err := os.ReadFile(filepath.Join("testdata", "suite_"+npu.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			// The goldens were captured at pipeline version 3; the
			// version metadata is the one sanctioned difference.
			golden = bytes.Replace(golden,
				[]byte(`"pipeline_version": "3"`),
				[]byte(fmt.Sprintf(`"pipeline_version": %q`, PipelineVersion)), 1)

			suite, err := RunSuiteOptsCtx(context.Background(), npu, model.All(), DefaultSuiteOptions())
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := suite.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), golden) {
				t.Fatalf("%s suite JSON drifted from the pre-refactor golden (first diff at byte %d)",
					npu.Name, firstDiff(got.Bytes(), golden))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
