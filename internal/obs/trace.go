// Package obs is the repo's dependency-free observability layer:
// stage tracing (span trees carried on the context), a Prometheus
// text-format metrics registry, an exposition-format parser for
// tests and smoke checks, request-ID plumbing, and build info.
//
// The design constraint, inherited from internal/failpoint, is a
// zero-cost disabled path: until some goroutine creates a Tracer,
// every instrumentation site in the pipeline costs exactly one atomic
// load and allocates nothing (pinned by an alloc guard in the tests
// and by the BenchmarkRunTrace/BenchmarkRunSuite rows in
// BENCH_PIPELINE.json). Tracing is opt-in per root: seda-serve
// attaches a Tracer to each request, seda-sweep/seda-sim behind
// -timing; batch callers that never opt in run the exact pre-obs
// hot path.
//
// Span names come from the Stage* constants — a fixed taxonomy, so
// they are safe to use as metric label values. Variable context
// (workload name, scheme name) goes in the span detail, which is
// never used as a label.
package obs

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names: the fixed span taxonomy. Instrumentation sites must
// use these constants (bounded cardinality — seda-serve feeds span
// names into the seda_stage_duration_seconds{stage=...} histogram, so
// the scheme stage adds one observation per scheme walk). A scheme
// span's children are authblock.search (SeDA only) and, per layer, one
// protect.layer and one dram.drain.
const (
	StageSuite        = "suite"             // one NPU x workload-set evaluation (seda.runSuiteWith)
	StageWorkload     = "workload"          // one workload dispatch in the suite pool
	StageScalesim     = "scalesim"          // systolic-array schedule (scalesim.SimulateNetwork)
	StageScheme       = "scheme"            // one scheme's layer-by-layer protect and drain, detail = scheme (seda.walk)
	StageProtectLayer = "protect.layer"     // one layer of the protection walk (memprot.WalkCtx)
	StageAuthblock    = "authblock.search"  // SeDA auth-block geometry search
	StageDRAMDrain    = "dram.drain"        // one layer's overlay explode/drain (dram.RunOverlayCtx)
	StageCacheGet     = "rescache.get"      // cache lookup incl. coalesced wait
	StageCacheDisk    = "rescache.disk"     // disk-layer read or write
	StageCompute      = "rescache.compute"  // fresh evaluation under the cache
	StageCalibrate    = "explore.calibrate" // surrogate calibration runs
	StageSurrogate    = "explore.surrogate" // analytic surrogate pass over the grid
	StageConfirm      = "explore.confirm"   // cycle-accurate confirmation loop
)

// active counts live (unfinished) Tracers process-wide. It is the
// disabled fast path: Start/StartChild/Detach return immediately
// after one atomic load when it is zero.
var active atomic.Int32

// Tracer owns one span tree. Create with NewTracer, release with
// Finish. All methods are safe for concurrent use by the goroutines
// of one request; OnEnd must be set before the first span ends.
type Tracer struct {
	// OnEnd, when non-nil, is called after every span ends (including
	// the root, on Finish) with its stage name and duration. It runs
	// outside the tracer lock and must be safe for concurrent use —
	// seda-serve points it at the stage-duration histograms. Set it
	// immediately after NewTracer, before spans end.
	OnEnd func(name string, d time.Duration)

	mu       sync.Mutex
	root     *Span
	finished bool
}

// Span is one timed node of a Tracer's tree. The zero value is not
// used; a nil *Span is the disabled form and every method on it is a
// no-op, so call sites never branch.
type Span struct {
	tr       *Tracer
	name     string
	detail   string
	start    time.Time
	dur      time.Duration
	children []*Span
	ended    bool
}

// spanKey carries the current *Span on the context.
type spanKey struct{}

// ridKey carries the request ID on the context.
type ridKey struct{}

// NewTracer creates a live Tracer whose root span is named name,
// returning a context that carries the root. The caller must call
// Finish exactly once; until then every instrumentation site in the
// process pays the armed (still cheap, but nonzero) path.
func NewTracer(ctx context.Context, name string) (context.Context, *Tracer) {
	t := &Tracer{}
	t.root = &Span{tr: t, name: name, start: time.Now()}
	active.Add(1)
	return context.WithValue(ctx, spanKey{}, t.root), t
}

// Finish ends the root span (if still open) and retires the Tracer
// from the process-wide active count. Idempotent. Spans reached by
// detached work (e.g. a cache compute that outlives its request) may
// still End afterwards; they simply no longer appear in exports
// taken before they ended.
func (t *Tracer) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	root := t.root
	ended := root.ended
	if !ended {
		root.ended = true
		root.dur = time.Since(root.start)
	}
	dur := root.dur
	cb := t.OnEnd
	t.mu.Unlock()
	if !ended && cb != nil {
		cb(root.name, dur)
	}
	active.Add(-1)
}

// Start opens a child span of the span carried by ctx and returns a
// derived context carrying the new span, for stages that have
// instrumented substages. When no tracer is live (one atomic load)
// or ctx carries no span, it returns (ctx, nil) unchanged and
// allocates nothing.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if active.Load() == 0 {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.tr.newChild(parent, name)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartChild is Start for leaf stages: it opens a child span without
// deriving a new context, so the per-call cost when tracing is the
// span allocation alone. Same disabled path as Start.
func StartChild(ctx context.Context, name string) *Span {
	if active.Load() == 0 {
		return nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return nil
	}
	return parent.tr.newChild(parent, name)
}

func (t *Tracer) newChild(parent *Span, name string) *Span {
	sp := &Span{tr: t, name: name, start: time.Now()}
	t.mu.Lock()
	parent.children = append(parent.children, sp)
	t.mu.Unlock()
	return sp
}

// End closes the span. Nil-safe and idempotent; fires the tracer's
// OnEnd hook.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	t := sp.tr
	t.mu.Lock()
	if sp.ended {
		t.mu.Unlock()
		return
	}
	sp.ended = true
	sp.dur = time.Since(sp.start)
	dur := sp.dur
	cb := t.OnEnd
	t.mu.Unlock()
	if cb != nil {
		cb(sp.name, dur)
	}
}

// SetDetail attaches variable context (workload name, scheme name) to
// the span. Details appear in JSON exports but never in metric
// labels. Nil-safe.
func (sp *Span) SetDetail(d string) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.detail = d
	sp.tr.mu.Unlock()
}

// Detach returns a fresh context carrying only the observability
// state of ctx — the current span and request ID, none of the
// deadline or cancellation. rescache uses it to parent the spans of
// a detached compute (which runs under its own lifetime) into the
// leading request's trace. When no tracer is live it returns
// context.Background() after one atomic load.
func Detach(ctx context.Context) context.Context {
	out := context.Background()
	if id, ok := ctx.Value(ridKey{}).(string); ok {
		out = context.WithValue(out, ridKey{}, id)
	}
	if active.Load() == 0 {
		return out
	}
	if sp, ok := ctx.Value(spanKey{}).(*Span); ok {
		out = context.WithValue(out, spanKey{}, sp)
	}
	return out
}

// WithRequestID returns a context carrying the request ID, readable
// with RequestID. Propagated by Detach into detached computes so
// error logs deep in the cache can name the request that led them.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ridKey{}, id)
}

// RequestID returns the request ID carried by ctx, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// SpanJSON is the export form of one span-tree node. Same-named
// same-detail siblings are merged at export: Count carries how many
// spans the node folds together and Ms their summed duration, so a
// 96-layer protection walk exports as one protect.layer node rather
// than 96.
type SpanJSON struct {
	Name   string     `json:"name"`
	Detail string     `json:"detail,omitempty"`
	Count  int        `json:"count,omitempty"` // omitted when 1
	Ms     float64    `json:"ms"`
	Spans  []SpanJSON `json:"spans,omitempty"`
}

// Tree snapshots the span tree in export form. Unended spans (export
// can race detached work) are measured as running until now.
func (t *Tracer) Tree() SpanJSON {
	if t == nil {
		return SpanJSON{}
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return exportSpan(t.root, now)
}

func exportSpan(sp *Span, now time.Time) SpanJSON {
	out := SpanJSON{Name: sp.name, Detail: sp.detail, Ms: roundMs(sp.durationAt(now))}
	if len(sp.children) > 0 {
		out.Spans = mergeChildren(sp.children, now)
	}
	return out
}

// Name returns the span's stage name ("" for nil).
func (sp *Span) Name() string {
	if sp == nil {
		return ""
	}
	return sp.name
}

func (sp *Span) durationAt(now time.Time) time.Duration {
	if sp.ended {
		return sp.dur
	}
	return now.Sub(sp.start)
}

// mergeChildren folds same-named same-detail siblings into one node
// (count + summed duration, children concatenated then merged
// recursively), preserving first-appearance order.
func mergeChildren(children []*Span, now time.Time) []SpanJSON {
	type group struct {
		count    int
		dur      time.Duration
		children []*Span
	}
	var order []string
	groups := make(map[string]*group)
	for _, c := range children {
		key := c.name + "\x00" + c.detail
		g, ok := groups[key]
		if !ok {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		g.count++
		g.dur += c.durationAt(now)
		g.children = append(g.children, c.children...)
	}
	out := make([]SpanJSON, 0, len(order))
	for _, key := range order {
		g := groups[key]
		name, detail, _ := strings.Cut(key, "\x00")
		node := SpanJSON{Name: name, Detail: detail, Ms: roundMs(g.dur)}
		if g.count > 1 {
			node.Count = g.count
		}
		if len(g.children) > 0 {
			node.Spans = mergeChildren(g.children, now)
		}
		out = append(out, node)
	}
	return out
}

// roundMs renders a duration in milliseconds at microsecond
// precision — readable in a debug header without drowning in digits.
func roundMs(d time.Duration) float64 {
	return math.Round(d.Seconds()*1e6) / 1e3
}

// JSON returns the compact JSON encoding of the span tree (the
// X-Seda-Timing header payload).
func (t *Tracer) JSON() []byte {
	b, err := json.Marshal(t.Tree())
	if err != nil { // unreachable: SpanJSON has no unmarshalable fields
		return []byte("{}")
	}
	return b
}

// WriteJSON writes the span tree to w, indented when indent is set
// (the seda-sweep -timing output).
func (t *Tracer) WriteJSON(w io.Writer, indent bool) error {
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(t.Tree())
}
