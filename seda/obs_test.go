package seda

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
)

// TestTracedSuiteOutputByteIdentical pins the observability
// invariant: arming a tracer must never move a byte of pipeline
// output. The span machinery only measures; it has no way to reorder
// or perturb the evaluation.
func TestTracedSuiteOutputByteIdentical(t *testing.T) {
	nets := []*model.Network{model.ByName("let"), model.ByName("ncf")}
	npu := EdgeNPU()

	plain, err := RunSuiteOptsCtx(context.Background(), npu, nets, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}

	ctx, tr := obs.NewTracer(context.Background(), "test")
	defer tr.Finish()
	traced, err := RunSuiteOptsCtx(ctx, npu, nets, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := plain.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := traced.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("traced suite JSON differs from untraced")
	}
}

// TestSuiteSpanTree checks the shape and arithmetic of a traced
// sweep: suite → workload → {scalesim, protect,
// dram}, and the workload's sequential phases fit inside its span.
func TestSuiteSpanTree(t *testing.T) {
	nets := []*model.Network{model.ByName("let"), model.ByName("ncf")}
	ctx, tr := obs.NewTracer(context.Background(), "test")
	if _, err := RunSuiteOptsCtx(ctx, EdgeNPU(), nets, DefaultSuiteOptions()); err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	tree := tr.Tree()
	if len(tree.Spans) != 1 || tree.Spans[0].Name != obs.StageSuite {
		t.Fatalf("root children: %+v", tree.Spans)
	}
	suite := tree.Spans[0]
	// Workload spans carry the workload name as detail, so the two
	// workloads stay distinct nodes instead of merging.
	if len(suite.Spans) != 2 {
		t.Fatalf("suite children (want 2 workload nodes): %+v", suite.Spans)
	}
	var dramCount int
	for _, workload := range suite.Spans {
		if workload.Name != obs.StageWorkload || workload.Detail == "" {
			t.Fatalf("suite child is not a detailed workload span: %+v", workload)
		}
		var childMs, dramMs float64
		seen := map[string]bool{}
		for _, sp := range workload.Spans {
			seen[sp.Name] = true
			if sp.Name != obs.StageDRAM {
				childMs += sp.Ms
			} else {
				dramMs = max(dramMs, sp.Ms)
				n := sp.Count
				if n == 0 {
					n = 1
				}
				dramCount += n
			}
		}
		for _, want := range []string{obs.StageScalesim, obs.StageProtect, obs.StageDRAM} {
			if !seen[want] {
				t.Errorf("workload %s span missing %s child: %+v", workload.Detail, want, workload.Spans)
			}
		}
		// scalesim, protect and the DRAM phase run one after another
		// inside the workload span; the six scheme drains of the DRAM
		// phase overlap, so the phase lasts as long as the slowest one.
		// The sum cannot exceed the workload span (1ms slack for the µs
		// rounding of each exported node).
		childMs += dramMs
		if childMs > workload.Ms+1 {
			t.Errorf("workload %s: stage durations %.3fms exceed workload span %.3fms",
				workload.Detail, childMs, workload.Ms)
		}
	}
	// DRAM spans carry the scheme name as detail: 6 schemes × 2
	// workloads, one span each.
	if want := 2 * len(Schemes()); dramCount != want {
		t.Errorf("dram span count %d, want %d", dramCount, want)
	}
}

// TestCachedSuiteSpansAttachThroughCache: a cold cached sweep routes
// every evaluation through the result cache's detached lead
// goroutine; its get/compute spans must still land under the leading
// request's workload spans.
func TestCachedSuiteSpansAttachThroughCache(t *testing.T) {
	cache := newTestCache(t)
	nets := []*model.Network{model.ByName("let")}
	ctx, tr := obs.NewTracer(context.Background(), "test")
	if _, err := RunSuiteCachedCtx(ctx, cache, EdgeNPU(), nets); err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	var found func(sp obs.SpanJSON, name string) bool
	found = func(sp obs.SpanJSON, name string) bool {
		if sp.Name == name {
			return true
		}
		for _, c := range sp.Spans {
			if found(c, name) {
				return true
			}
		}
		return false
	}
	tree := tr.Tree()
	for _, want := range []string{obs.StageCacheGet, obs.StageCompute, obs.StageDRAM} {
		if !found(tree, want) {
			t.Errorf("cached sweep trace missing %s span:\n%s", want, mustJSON(t, tr))
		}
	}
}

func mustJSON(t *testing.T, tr *obs.Tracer) string {
	t.Helper()
	return string(tr.JSON())
}
