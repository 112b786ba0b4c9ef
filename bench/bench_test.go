package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestQuick runs every workload at a tenth of its length, and the
// traced run once (it is the same for every workload), and checks that
// each prints every metric BENCHMARK.json lists, with its unit, and
// that no operation failed.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the programs and runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range names {
		for _, trace := range []bool{false, true} {
			if trace && wl != names[0] {
				continue
			}
			rec, err := run(context.Background(), root, wl, 2, 2*time.Second, trace)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", wl, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed: %v", wl, trace, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
			}
			var out bytes.Buffer
			if err := rec.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			for _, m := range want {
				found := false
				for _, line := range lines {
					f := strings.Fields(line)
					if len(f) >= 4 && f[0] == wl && f[1] == m.Name && f[3] == m.Unit {
						found = true
					}
				}
				if !found {
					t.Errorf("%s (trace %v): no line for %s in %s", wl, trace, m.Name, m.Unit)
				}
			}
			var last struct {
				Correct   *bool                      `json:"correct"`
				Attempted *int                       `json:"attempted"`
				Failed    *int                       `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct == nil || last.Attempted == nil || last.Failed == nil {
				t.Fatalf("%s: last line %q is not the result object (%v)", wl, lines[len(lines)-1], err)
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics in the result, want %d", wl, trace, len(last.Metrics), len(want))
			}
		}
	}
}

func TestGoldenSweepText(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGoldens(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.workloads) != 13 || g.workloads[0] != "let" {
		t.Fatalf("workloads = %v", g.workloads)
	}
	want := g.sweepAll()
	if !strings.HasPrefix(want, "[\n  {\n    \"npu\": \"server\",") || !strings.HasSuffix(want, "\n  }\n]\n") {
		t.Fatalf("sweepAll is not an indented two-suite array:\n%.200s", want)
	}
	if d := diffGolden(want, want); d != "" {
		t.Fatalf("identical text differs: %s", d)
	}
	// Another pipeline version is the one sanctioned difference.
	bumped := strings.Replace(want, `"pipeline_version": "3"`, `"pipeline_version": "9"`, -1)
	if bumped == want {
		t.Fatal("golden has no pipeline_version line to vary")
	}
	if d := diffGolden(bumped, want); d != "" {
		t.Fatalf("a pipeline version change was flagged: %s", d)
	}
	// A doctored row is caught.
	doctored := strings.Replace(want, `"exec_cycles": 33530,`, `"exec_cycles": 33531,`, 1)
	if doctored == want {
		t.Fatal("test row not found in the golden")
	}
	if d := diffGolden(doctored, want); !strings.Contains(d, "33531") {
		t.Fatalf("doctored line not reported: %q", d)
	}
	if d := diffGolden(want[:len(want)/2], want); d == "" {
		t.Fatal("truncated output not reported")
	}
}
