package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PromContentType is the Content-Type of the Prometheus text
// exposition format this registry writes.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair on a series.
type Label struct{ Name, Value string }

// Registry is a minimal Prometheus-text metric registry: counters,
// gauges and latency histograms, each series carrying optional
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

// Histogram is the one latency histogram: log buckets with a single
// fixed layout shared by every /metrics family. Bucket 0 holds
// d ≤ 1µs; bucket k holds 2^(k-1)µs < d ≤ 2^k µs, one per octave
// across 30 octaves (1µs .. 2^30µs ≈ 17.9min, 31 finite bounds), and
// one overflow bucket holds everything beyond full scale. Buckets are
// upper-inclusive (Prometheus le semantics), and every bound is
// exposed, so Observe and the exposition count the same buckets. The
// sum is kept exactly in nanoseconds. Observations are lock-free
// atomics; the zero value is ready to use.
type Histogram struct {
	counts [histBounds + 1]atomic.Uint64 // last slot: beyond full scale
	sum    atomic.Int64                  // nanoseconds
}

const (
	histOctaves  = 30
	histBounds   = histOctaves + 1
	histMinBound = time.Microsecond
)

// histBound is the bound table: histBound[k] is bucket k's inclusive
// upper bound, exactly 2^k µs.
var histBound = func() (b [histBounds]time.Duration) {
	for k := range b {
		b[k] = histMinBound << k
	}
	return b
}()

// Observe records one duration; negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	// d ≤ 2^k µs exactly when ⌊(d-1)/1µs⌋ < 2^k, so the first bound
	// holding d is bits.Len64 of that quotient (0 for d ≤ 1µs; Go's
	// division truncates, so d = 0 gives 0 too).
	i := min(bits.Len64(uint64((d-1)/histMinBound)), histBounds)
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the exact sum of observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

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

// Histogram registers (or returns the existing) latency histogram
// series. Observations are durations; the exposition is in seconds.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	s := r.register(name, help, "histogram", labels)
	if s.h == nil {
		s.h = new(Histogram)
	}
	return s.h
}

// HistogramVec is a histogram family keyed by one variable label,
// series created on first use. Keep the label's value set bounded
// (endpoint paths, stage names) — every value is a live series.
type HistogramVec struct {
	r     *Registry
	name  string
	help  string
	label string

	mu sync.RWMutex
	m  map[string]*Histogram
}

// HistogramVec registers a histogram family with one variable label.
func (r *Registry) HistogramVec(name, help, label string) *HistogramVec {
	r.mustFamily(name, help, "histogram")
	return &HistogramVec{r: r, name: name, help: help, label: label, m: make(map[string]*Histogram)}
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
	h = v.r.Histogram(v.name, v.help, Label{v.label, value})
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
	// not parse back.
	if strings.TrimSpace(help) == "" {
		panic("obs: " + name + " needs HELP text")
	}
	// Prometheus naming: only counters end in _total, and durations
	// and sizes use base units (_seconds, _bytes).
	base, total := strings.CutSuffix(name, "_total")
	if (typ == "counter") != total {
		panic("obs: " + typ + " " + name + ": counters, and only counters, end in _total")
	}
	for _, unit := range []string{"_ms", "_millis", "_milliseconds", "_kb", "_mb", "_nanos", "_nanoseconds"} {
		if strings.HasSuffix(base, unit) {
			panic("obs: " + name + ": non-base unit suffix " + unit)
		}
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

// writeHistogram exposes every bound of the layout, le = 2^k µs for
// k = 0…30, plus +Inf; each line counts all observations ≤ le.
// _count is the +Inf total, so the two always agree.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	var cum uint64
	for i, bound := range histBound {
		cum += h.counts[i].Load()
		le := formatFloat(float64(bound) / 1e9)
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(labels, le), cum)
	}
	cum += h.counts[histBounds].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(float64(h.Sum())/1e9))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, cum)
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
