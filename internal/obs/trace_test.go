package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDisabledFastPathAllocs pins the non-negotiable invariant of the
// package: with no live tracer, every instrumentation form allocates
// nothing. The pipeline calls these on hot paths (per DRAM drain, per
// protection layer); a single allocation here would show up in the
// TestRunTraceAllocGuard pin over in internal/dram.
func TestDisabledFastPathAllocs(t *testing.T) {
	if active.Load() != 0 {
		t.Fatal("test requires no live tracer")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, sp := Start(ctx, StageScheme)
		sp.SetDetail("x")
		sp.End()
		sp2 := StartChild(c2, StageProtectLayer)
		sp2.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled Start/StartChild path allocates %v per run, want 0", allocs)
	}
}

// TestArmedButForeignContextAllocs covers the second-cheapest path: a
// tracer is live somewhere in the process, but this context carries
// no span (e.g. a batch caller running beside a traced server
// request). Only the context value walk is paid; still no allocation.
func TestArmedButForeignContextAllocs(t *testing.T) {
	_, tr := NewTracer(context.Background(), "other")
	defer tr.Finish()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := Start(ctx, StageScheme)
		sp.End()
		StartChild(ctx, StageDRAMDrain).End()
	})
	if allocs != 0 {
		t.Fatalf("foreign-context path allocates %v per run, want 0", allocs)
	}
}

func TestSpanTreeNestingAndMerge(t *testing.T) {
	ctx, tr := NewTracer(context.Background(), "request")
	tr.root.SetDetail("GET /v1/sweep")

	wctx, w := Start(ctx, StageWorkload)
	w.SetDetail("ncf")
	for i := 0; i < 3; i++ {
		sp := StartChild(wctx, StageDRAMDrain)
		time.Sleep(time.Millisecond)
		sp.End()
	}
	dctx, d := Start(wctx, StageScheme)
	d.SetDetail("SeDA")
	StartChild(dctx, StageDRAMDrain).End()
	d.End()
	w.End()
	tr.Finish()

	tree := tr.Tree()
	if tree.Name != "request" || tree.Detail != "GET /v1/sweep" {
		t.Fatalf("root = %+v", tree)
	}
	if tree.Ms <= 0 {
		t.Fatalf("root duration %v, want > 0", tree.Ms)
	}
	if len(tree.Spans) != 1 || tree.Spans[0].Name != StageWorkload || tree.Spans[0].Detail != "ncf" {
		t.Fatalf("children = %+v", tree.Spans)
	}
	wl := tree.Spans[0]
	// The three same-named drain spans merge into one node carrying
	// count=3; the per-scheme span stays separate (detail differs
	// from nothing — different name entirely).
	if len(wl.Spans) != 2 {
		t.Fatalf("workload children = %+v", wl.Spans)
	}
	drain := wl.Spans[0]
	if drain.Name != StageDRAMDrain || drain.Count != 3 || drain.Ms < 3 {
		t.Fatalf("merged drain node = %+v", drain)
	}
	scheme := wl.Spans[1]
	if scheme.Name != StageScheme || scheme.Detail != "SeDA" || scheme.Count != 0 {
		t.Fatalf("scheme node = %+v", scheme)
	}
	if len(scheme.Spans) != 1 || scheme.Spans[0].Count != 0 {
		t.Fatalf("scheme children = %+v", scheme.Spans)
	}

	// Children of a span cannot outlast it by construction here, so
	// the merged durations must fit inside the parent (small timer
	// slack for clock granularity).
	var sum float64
	for _, c := range wl.Spans {
		sum += c.Ms
	}
	if sum > wl.Ms*1.05+1 {
		t.Fatalf("children sum %.3fms exceeds parent %.3fms", sum, wl.Ms)
	}
}

func TestSpanMergeKeyedByDetail(t *testing.T) {
	ctx, tr := NewTracer(context.Background(), "root")
	defer tr.Finish()
	for _, d := range []string{"a", "a", "b"} {
		sp := StartChild(ctx, StageWorkload)
		sp.SetDetail(d)
		sp.End()
	}
	tree := tr.Tree()
	if len(tree.Spans) != 2 {
		t.Fatalf("want 2 merged nodes (a x2, b), got %+v", tree.Spans)
	}
	if tree.Spans[0].Detail != "a" || tree.Spans[0].Count != 2 {
		t.Fatalf("node a = %+v", tree.Spans[0])
	}
	if tree.Spans[1].Detail != "b" || tree.Spans[1].Count != 0 {
		t.Fatalf("node b = %+v", tree.Spans[1])
	}
}

// TestConcurrentSpans exercises the tracer under the shape the suite
// pool produces: many goroutines opening and closing spans against
// one tracer. Run with -race in CI.
func TestConcurrentSpans(t *testing.T) {
	ctx, tr := NewTracer(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx, w := Start(ctx, StageWorkload)
			for j := 0; j < 50; j++ {
				StartChild(wctx, StageDRAMDrain).End()
			}
			w.End()
		}()
	}
	wg.Wait()
	tr.Finish()
	tree := tr.Tree()
	if len(tree.Spans) != 1 || tree.Spans[0].Count != 8 {
		t.Fatalf("merged workload node = %+v", tree.Spans)
	}
	if len(tree.Spans[0].Spans) != 1 || tree.Spans[0].Spans[0].Count != 400 {
		t.Fatalf("merged drain node = %+v", tree.Spans[0].Spans)
	}
}

func TestOnEndHook(t *testing.T) {
	ctx, tr := NewTracer(context.Background(), "request")
	var mu sync.Mutex
	got := map[string]int{}
	tr.OnEnd = func(name string, d time.Duration) {
		if d < 0 {
			t.Errorf("negative duration for %s", name)
		}
		mu.Lock()
		got[name]++
		mu.Unlock()
	}
	StartChild(ctx, StageCompute).End()
	sp := StartChild(ctx, StageCacheGet)
	sp.End()
	sp.End() // idempotent: must not re-fire the hook
	tr.Finish()
	tr.Finish() // idempotent: root fires once
	want := map[string]int{StageCompute: 1, StageCacheGet: 1, "request": 1}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("OnEnd[%s] = %d, want %d (all: %v)", k, got[k], n, got)
		}
	}
}

func TestFinishRetiresActiveCount(t *testing.T) {
	before := active.Load()
	_, tr := NewTracer(context.Background(), "a")
	if active.Load() != before+1 {
		t.Fatalf("active = %d after NewTracer, want %d", active.Load(), before+1)
	}
	tr.Finish()
	tr.Finish()
	if active.Load() != before {
		t.Fatalf("active = %d after Finish, want %d", active.Load(), before)
	}
}

func TestDetach(t *testing.T) {
	// Disabled: Detach drops everything but stays cheap.
	if got := Detach(context.WithValue(context.Background(), spanKey{}, &Span{})); got.Value(spanKey{}) != nil && active.Load() == 0 {
		t.Fatal("disabled Detach kept a span")
	}

	ctx := WithRequestID(context.Background(), "req-42")
	ctx, tr := NewTracer(ctx, "request")
	defer tr.Finish()
	cctx, cancel := context.WithCancel(ctx)
	cancel()

	d := Detach(cctx)
	if d.Err() != nil {
		t.Fatal("detached context inherited cancellation")
	}
	if _, ok := d.Deadline(); ok {
		t.Fatal("detached context inherited a deadline")
	}
	if RequestID(d) != "req-42" {
		t.Fatalf("request ID = %q, want req-42", RequestID(d))
	}
	// Spans opened on the detached context still land in the trace.
	StartChild(d, StageCompute).End()
	tree := tr.Tree()
	if len(tree.Spans) != 1 || tree.Spans[0].Name != StageCompute {
		t.Fatalf("detached span missing: %+v", tree.Spans)
	}
}

func TestRequestID(t *testing.T) {
	if RequestID(context.Background()) != "" {
		t.Fatal("empty context has a request ID")
	}
	ctx := WithRequestID(context.Background(), "abc")
	if RequestID(ctx) != "abc" {
		t.Fatalf("RequestID = %q", RequestID(ctx))
	}
}

func TestJSONExport(t *testing.T) {
	ctx, tr := NewTracer(context.Background(), "seda-sweep")
	StartChild(ctx, StageSuite).End()
	tr.Finish()

	var tree SpanJSON
	if err := json.Unmarshal(tr.JSON(), &tree); err != nil {
		t.Fatalf("compact JSON: %v", err)
	}
	if tree.Name != "seda-sweep" || len(tree.Spans) != 1 {
		t.Fatalf("tree = %+v", tree)
	}

	var buf strings.Builder
	if err := tr.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\n  ") {
		t.Fatal("WriteJSON(indent) produced no indentation")
	}
}

// TestExportRacesDetachedWork: exporting while spans are still open
// must not block or corrupt — unended spans read as running-until-now.
func TestExportRacesDetachedWork(t *testing.T) {
	ctx, tr := NewTracer(context.Background(), "request")
	sp := StartChild(ctx, StageCompute)
	tr.Finish() // request over; compute still running
	tree := tr.Tree()
	if len(tree.Spans) != 1 || tree.Spans[0].Ms < 0 {
		t.Fatalf("open span export = %+v", tree.Spans)
	}
	sp.End() // late end is a no-op beyond bookkeeping
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Finish()
	if tree := tr.Tree(); tree.Name != "" {
		t.Fatalf("nil tracer tree = %+v", tree)
	}
	var sp *Span
	sp.End()
	sp.SetDetail("x")
	if sp.Name() != "" {
		t.Fatal("nil span has a name")
	}
}
