package seda

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/memprot"
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
// sweep: suite → workload → {scalesim, scheme × 6}, one scheme span per
// scheme name, each holding one protect.layer and one dram.drain span
// per layer (merged into two counted nodes) and, under SeDA only, the
// authblock search. Everything inside a workload runs one step after
// another, so children fit inside their parent at both levels.
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
	// fits checks that sp's children sum to at most sp (1ms slack for
	// the µs rounding of each exported node).
	fits := func(sp obs.SpanJSON) {
		var childMs float64
		for _, c := range sp.Spans {
			childMs += c.Ms
		}
		if childMs > sp.Ms+1 {
			t.Errorf("%s %s: children sum to %.3fms, more than the span's %.3fms", sp.Name, sp.Detail, childMs, sp.Ms)
		}
	}
	for _, workload := range suite.Spans {
		if workload.Name != obs.StageWorkload || workload.Detail == "" {
			t.Fatalf("suite child is not a detailed workload span: %+v", workload)
		}
		fits(workload)
		layers := len(model.ByName(workload.Detail).Layers)
		counts := map[string]int{}
		for _, sp := range workload.Spans {
			counts[sp.Name] += max(sp.Count, 1)
			if sp.Name != obs.StageScheme {
				continue
			}
			if sp.Count > 1 {
				t.Errorf("workload %s: %d scheme spans named %q, want one", workload.Detail, sp.Count, sp.Detail)
			}
			fits(sp)
			inner := map[string]int{}
			for _, c := range sp.Spans {
				inner[c.Name] += max(c.Count, 1)
			}
			want := map[string]int{obs.StageProtectLayer: layers, obs.StageDRAMDrain: layers}
			if sp.Detail == memprot.SchemeSeDA.Name() {
				want[obs.StageAuthblock] = 1
			}
			if !reflect.DeepEqual(inner, want) {
				t.Errorf("workload %s scheme %s: children %v, want %v", workload.Detail, sp.Detail, inner, want)
			}
		}
		if want := map[string]int{obs.StageScalesim: 1, obs.StageScheme: len(Schemes())}; !reflect.DeepEqual(counts, want) {
			t.Errorf("workload %s: children %v, want %v", workload.Detail, counts, want)
		}
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
	if _, err := RunSuiteCachedCtx(ctx, cache, EdgeNPU(), nets, Schemes()); err != nil {
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
	for _, want := range []string{obs.StageCacheGet, obs.StageCompute, obs.StageScheme} {
		if !found(tree, want) {
			t.Errorf("cached sweep trace missing %s span:\n%s", want, mustJSON(t, tr))
		}
	}
}

func mustJSON(t *testing.T, tr *obs.Tracer) string {
	t.Helper()
	return string(tr.JSON())
}
