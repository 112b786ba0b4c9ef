package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// roundTrip writes the registry and re-reads it through the strict
// parser — every registry test doubles as a writer/parser
// compatibility test.
func roundTrip(t *testing.T, r *Registry) map[string]*PromFamily {
	t.Helper()
	var buf strings.Builder
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseProm(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("registry output does not parse: %v\n%s", err, buf.String())
	}
	if issues := LintProm(fams); len(issues) > 0 {
		t.Fatalf("registry output fails lint: %v", issues)
	}
	return fams
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("seda_test_events_total", "Test events.")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d", c.Value())
	}
	c.Set(7) // mirror-counter path
	g := r.Gauge("seda_test_depth", "Test depth.")
	g.Set(1.5)
	fc := r.FloatCounter("seda_test_pause_seconds_total", "Test pause.")
	fc.Set(0.25)

	fams := roundTrip(t, r)
	if v, _ := fams["seda_test_events_total"].Value("seda_test_events_total", nil); v != 7 {
		t.Fatalf("parsed counter = %v", v)
	}
	if v, _ := fams["seda_test_depth"].Value("seda_test_depth", nil); v != 1.5 {
		t.Fatalf("parsed gauge = %v", v)
	}
	if v, _ := fams["seda_test_pause_seconds_total"].Value("seda_test_pause_seconds_total", nil); v != 0.25 {
		t.Fatalf("parsed float counter = %v", v)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("seda_x_total", "X.")
	b := r.Counter("seda_x_total", "X.")
	if a != b {
		t.Fatal("same registration returned different counters")
	}
	l1 := r.Gauge("seda_y", "Y.", Label{"k", "1"})
	l2 := r.Gauge("seda_y", "Y.", Label{"k", "2"})
	if l1 == l2 {
		t.Fatal("distinct label values share a series")
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	for name, f := range map[string]func(){
		"invalid name":        func() { r.Counter("9bad_total", "h") },
		"counter sans _total": func() { r.Counter("seda_things", "h") },
		"gauge with _total":   func() { r.Gauge("seda_things_total", "h") },
		"type conflict":       func() { r.Counter("seda_a_total", "h"); r.Gauge("seda_a_total", "h") },
		"help conflict":       func() { r.Gauge("seda_b", "h1"); r.Gauge("seda_b", "h2") },
		"bad label name":      func() { r.Gauge("seda_c", "h", Label{"__bad", "v"}) },
		"blank help":          func() { r.Gauge("seda_e", " \r") },
		"descending buckets":  func() { r.Histogram("seda_d_seconds", "h", []float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("seda_test_duration_seconds", "Test durations.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-2.565) > 1e-6 {
		t.Fatalf("sum = %v", h.Sum())
	}

	fams := roundTrip(t, r)
	fam := fams["seda_test_duration_seconds"]
	if fam.Type != "histogram" {
		t.Fatalf("type = %s", fam.Type)
	}
	// Cumulative: le=0.01 holds 2 (0.005 and the boundary 0.01),
	// le=0.1 holds 3, le=1 holds 4, +Inf holds all 5.
	for _, want := range []struct {
		le string
		n  float64
	}{{"0.01", 2}, {"0.1", 3}, {"1", 4}, {"+Inf", 5}} {
		v, err := fam.Value("seda_test_duration_seconds_bucket", map[string]string{"le": want.le})
		if err != nil || v != want.n {
			t.Fatalf("bucket le=%s: v=%v err=%v, want %v", want.le, v, err, want.n)
		}
	}
	if n, _ := fam.HistCount(nil); n != 5 {
		t.Fatalf("HistCount = %v", n)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("seda_stage_duration_seconds", "Stage durations.", "stage", DurationBuckets)
	hv.With(StageDRAM).Observe(0.002)
	hv.With(StageDRAM).Observe(0.004)
	hv.With(StageProtect).Observe(0.5)
	if hv.With(StageDRAM) != hv.With(StageDRAM) {
		t.Fatal("With is not stable")
	}

	fams := roundTrip(t, r)
	fam := fams["seda_stage_duration_seconds"]
	if n, err := fam.HistCount(map[string]string{"stage": StageDRAM}); err != nil || n != 2 {
		t.Fatalf("dram count = %v err=%v", n, err)
	}
	if n, err := fam.HistCount(map[string]string{"stage": StageProtect}); err != nil || n != 1 {
		t.Fatalf("protect count = %v err=%v", n, err)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("seda_build_info", "Build info.",
		Label{"revision", `quote " slash \ newline` + "\n"}, Label{"pipeline", "4"})
	g.Set(1)
	fams := roundTrip(t, r)
	v, err := fams["seda_build_info"].Value("seda_build_info", map[string]string{
		"revision": `quote " slash \ newline` + "\n", "pipeline": "4"})
	if err != nil || v != 1 {
		t.Fatalf("escaped labels did not round-trip: v=%v err=%v", v, err)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("seda_conc_seconds", "h", DurationBuckets)
	c := r.Counter("seda_conc_total", "h")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.001)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || c.Value() != 8000 {
		t.Fatalf("count=%d counter=%d", h.Count(), c.Value())
	}
	roundTrip(t, r)
}

func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	rg := NewRuntimeGauges(r)
	rg.Collect()
	if rg.Goroutines.Value() < 1 {
		t.Fatalf("goroutines = %v", rg.Goroutines.Value())
	}
	if rg.HeapAlloc.Value() <= 0 || rg.HeapSys.Value() <= 0 {
		t.Fatal("heap gauges not collected")
	}
	fams := roundTrip(t, r)
	for _, name := range []string{
		"seda_go_goroutines", "seda_go_heap_alloc_bytes", "seda_go_heap_sys_bytes",
		"seda_go_gc_pause_seconds_total", "seda_go_gc_runs_total",
	} {
		if fams[name] == nil {
			t.Fatalf("missing runtime family %s", name)
		}
	}
}

func TestReadBuild(t *testing.T) {
	b := ReadBuild()
	if b.GoVersion == "" {
		t.Fatal("no Go version")
	}
	// Test binaries rarely carry VCS stamps; the contract is only
	// that fields are never empty.
	if b.ModuleVersion == "" || b.Revision == "" {
		t.Fatalf("empty build fields: %+v", b)
	}
}

func TestFormatFloat(t *testing.T) {
	for v, want := range map[float64]string{
		0:      "0",
		1:      "1",
		0.0005: "0.0005",
		1.5:    "1.5",
		2.5e20: "2.5e+20",
	} {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}
