package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// PromContentType is the Content-Type of the Prometheus text
// exposition format this registry writes.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// DurationBuckets are the fixed histogram bounds (seconds) shared by
// the request/stage/compute duration histograms: half a millisecond
// (a warm cache hit) through a minute (a cold full-suite sweep on the
// edge NPU takes ~4 s; explore confirmation loops can run tens of
// seconds), roughly 2.5x apart.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Label is one name="value" pair on a series.
type Label struct{ Name, Value string }

// Registry is a minimal Prometheus-text metric registry: counters,
// gauges and fixed-bucket histograms, each series carrying optional
// constant labels, written in exposition format 0.0.4 with one
// HELP/TYPE block per family. Registration panics on misuse
// (programmer error: invalid name, blank HELP, type conflict,
// duplicate series); observation methods are lock-free atomics safe
// for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

type family struct {
	name, help, typ string
	mu              sync.Mutex
	series          []*series
}

type series struct {
	labels string // rendered {a="b"} form, "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter is a monotonically increasing integer series.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set overwrites the value. It exists for mirror counters — series
// whose source of truth is an external monotonic counter (rescache
// stats snapshots) copied in at scrape time — and must only be used
// with monotonic sources.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value returns the current value.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float series that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// FloatCounter is a float-valued counter (e.g. cumulative GC pause
// seconds). Same storage as Gauge; registered with counter type so
// the exposition and the linter treat it as monotonic.
type FloatCounter = Gauge

// Set overwrites the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Observations are three
// atomic adds; no locks on the observe path.
type Histogram struct {
	bounds   []float64 // ascending upper bounds, +Inf implicit
	counts   []atomic.Uint64
	count    atomic.Uint64
	sumMicro atomic.Int64 // sum in micro-units to keep the hot path lock-free
}

// Observe records v (must be >= 0 for sane bucket semantics).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= le
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumMicro.Add(int64(math.Round(v * 1e6)))
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations (micro-unit precision).
func (h *Histogram) Sum() float64 { return float64(h.sumMicro.Load()) / 1e6 }

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Counter registers (or returns the existing) counter series name
// with the given constant labels. By convention name must end in
// _total.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, "counter", labels)
	if s.c == nil {
		s.c = new(Counter)
	}
	return s.c
}

// FloatCounter registers (or returns the existing) float-valued
// counter series. Same _total naming rule as Counter; the caller is
// responsible for monotonicity.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	s := r.register(name, help, "counter", labels)
	if s.g == nil {
		s.g = new(Gauge)
	}
	return s.g
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, "gauge", labels)
	if s.g == nil {
		s.g = new(Gauge)
	}
	return s.g
}

// Histogram registers (or returns the existing) histogram series with
// the given bucket upper bounds (a +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.register(name, help, "histogram", labels)
	if s.h == nil {
		s.h = newHistogram(bounds)
	}
	return s.h
}

// HistogramVec is a histogram family keyed by one variable label,
// series created on first use. Keep the label's value set bounded
// (endpoint paths, stage names) — every value is a live series.
type HistogramVec struct {
	r      *Registry
	name   string
	help   string
	label  string
	bounds []float64

	mu sync.RWMutex
	m  map[string]*Histogram
}

// HistogramVec registers a histogram family with one variable label.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	r.mustFamily(name, help, "histogram")
	return &HistogramVec{r: r, name: name, help: help, label: label,
		bounds: bounds, m: make(map[string]*Histogram)}
}

// With returns the histogram for the given label value, creating the
// series on first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.m[value]; ok {
		return h
	}
	h = v.r.Histogram(v.name, v.help, v.bounds, Label{v.label, value})
	v.m[value] = h
	return h
}

// register finds or creates the (family, series) pair.
func (r *Registry) register(name, help, typ string, labels []Label) *series {
	f := r.mustFamily(name, help, typ)
	ls := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.series {
		if s.labels == ls {
			return s
		}
	}
	s := &series{labels: ls}
	f.series = append(f.series, s)
	return s
}

func (r *Registry) mustFamily(name, help, typ string) *family {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	// A blank HELP line ("" or a lone "\r" a line reader strips) does
	// not parse back, and LintProm requires HELP on every family.
	if strings.TrimSpace(help) == "" {
		panic("obs: " + name + " needs HELP text")
	}
	if typ == "counter" && !strings.HasSuffix(name, "_total") {
		panic("obs: counter " + name + " must end in _total")
	}
	if typ == "gauge" && strings.HasSuffix(name, "_total") {
		panic("obs: gauge " + name + " must not end in _total")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
		return f
	}
	if f.typ != typ || f.help != help {
		panic("obs: conflicting registration for " + name)
	}
	return f
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" || strings.HasPrefix(name, "__") {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if !validLabelName(l.Name) {
			panic("obs: invalid label name " + strconv.Quote(l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WriteProm writes every registered family in exposition format
// 0.0.4: families sorted by name, one HELP/TYPE block each, series
// sorted by label string, histograms expanded to cumulative _bucket
// lines plus _sum and _count.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		series := make([]*series, len(f.series))
		copy(series, f.series)
		f.mu.Unlock()
		sort.Slice(series, func(i, j int) bool { return series[i].labels < series[j].labels })

		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range series {
			switch {
			case s.c != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case s.g != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.g.Value()))
			case s.h != nil:
				writeHistogram(&b, f.name, s.labels, s.h)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(labels, formatFloat(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.count.Load())
}

// bucketLabels splices le="bound" into an existing label set.
func bucketLabels(labels, bound string) string {
	le := `le="` + bound + `"`
	if labels == "" {
		return "{" + le + "}"
	}
	return labels[:len(labels)-1] + "," + le + "}"
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}
