package main

import (
	"math"
	"testing"
)

func around(center float64, offsets ...float64) []float64 {
	out := make([]float64, len(offsets))
	for i, o := range offsets {
		out[i] = center + o
	}
	return out
}

var jitter = []float64{-1, 0.5, 0, 1, -0.5, 0.2, -0.2, 0.8, -0.8, 0.1}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name         string
		higherBetter bool
		bound        float64
		base, head   []float64
		want         string
	}{
		{"faster in every pair", false, 0.1, around(100, jitter...), around(90, jitter...), "gain"},
		{"higher throughput", true, 0.1, around(100, jitter...), around(110, jitter...), "gain"},
		{"within the noise", false, 0.1, around(100, jitter...), around(100.3, jitter...), "same"},
		{"slower past the bound", false, 0.1, around(100, jitter...), around(115, jitter...), "regression"},
		{"throughput lost past the bound", true, 0.1, around(100, jitter...), around(85, jitter...), "regression"},
		{"slower within the bound", false, 0.1, around(100, jitter...), around(105, jitter...), "same"},
		// A parent spread of 30% cannot show a 10% bound holds.
		{"spread wider than the bound", false, 0.1,
			around(100, -30, 20, 0, 25, -20, 10, -10, 15, -15, 5), around(101, -30, 20, 0, 25, -20, 10, -10, 15, -15, 5), "unresolved"},
		// ... unless every run of the change beats every run of the parent
		// (here by less than the parent's spread, so it is no gain).
		{"wide spread but all better", false, 0.1,
			[]float64{80, 81, 82, 100, 100, 100, 118, 119, 120, 121}, around(79.5, make([]float64, 10)...), "same"},
		// Ties count for neither side: identical counts never gain.
		{"identical counts", false, math.NaN(), around(7, make([]float64, 10)...), around(7, make([]float64, 10)...), "-"},
		{"per-layer gain", false, math.NaN(), around(100, jitter...), around(50, jitter...), "gain"},
	} {
		got := judge(tc.higherBetter, tc.bound, tc.base, tc.head)
		if got.verdict != tc.want {
			t.Errorf("%s: verdict %q (change %+.3f, %d/%d wins), want %q", tc.name, got.verdict, got.change, got.wins, got.pairs, tc.want)
		}
	}
}

// TestJudgeNeedsNineOfTenPairs: a median gap wider than the spread is
// not a gain when the change loses two pairs in ten.
func TestJudgeNeedsNineOfTenPairs(t *testing.T) {
	base := around(100, jitter...)
	head := around(97, jitter...)
	head[0], head[1] = 200, 200
	if got := judge(false, 0.1, base, head); got.wins != 8 || got.verdict == "gain" {
		t.Fatalf("8/10 wins judged %q", got.verdict)
	}
}

func TestCompareRecords(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []specMetric{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
		PerLayer: []specMetric{{Name: "dram.ms", Unit: "ms", Better: "lower"}},
	}
	rec := func(wl string, p50, dram float64) record {
		return record{Workload: wl, Metrics: map[string]metric{
			"p50_ms":  {Unit: "ms", Value: p50},
			"dram.ms": {Unit: "ms", Value: dram},
		}}
	}
	var base, head []record
	for _, j := range jitter {
		base = append(base, rec("suite-cold", 100+j, 50+j), rec("serve-cold", 10+j/10, 50+j))
		head = append(head, rec("suite-cold", 120+j, 40+j), rec("serve-cold", 10+j/10, 50+j))
	}
	rows := compare(spec, base, head)
	got := map[string]string{}
	for _, r := range rows {
		got[r.workload+" "+r.metric] = r.verdict
	}
	want := map[string]string{
		"suite-cold p50_ms":  "regression",
		"suite-cold dram.ms": "gain",
		"serve-cold p50_ms":  "same",
		"serve-cold dram.ms": "-",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %q, want %q", k, got[k], v)
		}
	}
	if len(rows) != len(want) {
		t.Errorf("%d rows, want %d", len(rows), len(want))
	}
}
