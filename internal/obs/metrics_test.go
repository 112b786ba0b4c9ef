package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
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
		"invalid name":          func() { r.Counter("9bad_total", "h") },
		"counter sans _total":   func() { r.Counter("seda_things", "h") },
		"gauge with _total":     func() { r.Gauge("seda_things_total", "h") },
		"histogram with _total": func() { r.Histogram("seda_wait_seconds_total", "h") },
		"millisecond unit":      func() { r.Gauge("seda_latency_ms", "h") },
		"ms counter":            func() { r.Counter("seda_pause_ms_total", "h") },
		"megabyte unit":         func() { r.HistogramVec("seda_size_mb", "h", "k") },
		"type conflict":         func() { r.Gauge("seda_a", "h"); r.Histogram("seda_a", "h") },
		"help conflict":         func() { r.Gauge("seda_b", "h1"); r.Gauge("seda_b", "h2") },
		"bad label name":        func() { r.Gauge("seda_c", "h", Label{"__bad", "v"}) },
		"blank help":            func() { r.Gauge("seda_e", " \r") },
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
	h := r.Histogram("seda_test_duration_seconds", "Test durations.")
	for _, d := range []time.Duration{
		500 * time.Microsecond, 1024 * time.Microsecond, 5 * time.Millisecond,
		500 * time.Millisecond, 2 * time.Hour,
	} {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if want := 2*time.Hour + 506524*time.Microsecond; h.Sum() != want {
		t.Fatalf("sum = %s, want %s", h.Sum(), want)
	}

	fams := roundTrip(t, r)
	fam := fams["seda_test_duration_seconds"]
	if fam.Type != "histogram" {
		t.Fatalf("type = %s", fam.Type)
	}
	// Cumulative: le=2^9µs holds 1, le=2^10µs holds 2 (its bound is
	// inclusive), le=2^13µs holds 3, le=2^19µs holds 4, and only +Inf
	// holds the observation past full scale (2^30µs ≈ 17.9 min).
	for _, want := range []struct {
		le string
		n  float64
	}{{"0.000512", 1}, {"0.001024", 2}, {"0.008192", 3}, {"0.524288", 4}, {"1073.741824", 4}, {"+Inf", 5}} {
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
	hv := r.HistogramVec("seda_stage_duration_seconds", "Stage durations.", "stage")
	hv.With(StageScheme).Observe(2 * time.Millisecond)
	hv.With(StageScheme).Observe(4 * time.Millisecond)
	hv.With(StageProtectLayer).Observe(500 * time.Millisecond)
	if hv.With(StageScheme) != hv.With(StageScheme) {
		t.Fatal("With is not stable")
	}

	fams := roundTrip(t, r)
	fam := fams["seda_stage_duration_seconds"]
	if n, err := fam.HistCount(map[string]string{"stage": StageScheme}); err != nil || n != 2 {
		t.Fatalf("scheme count = %v err=%v", n, err)
	}
	if n, err := fam.HistCount(map[string]string{"stage": StageProtectLayer}); err != nil || n != 1 {
		t.Fatalf("protect.layer count = %v err=%v", n, err)
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
	h := r.Histogram("seda_conc_seconds", "h")
	c := r.Counter("seda_conc_total", "h")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(time.Duration(j) * time.Microsecond)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || c.Value() != 8000 {
		t.Fatalf("count=%d counter=%d", h.Count(), c.Value())
	}
	if h.Sum() != 8*499500*time.Microsecond {
		t.Fatalf("sum=%s", h.Sum())
	}
	// No concurrent Observe lost a bucket increment: each bucket holds
	// 8× its share of 0…999µs.
	for i := range h.counts {
		var want uint64
		for j := 0; j < 1000; j++ {
			if inBucket(i, time.Duration(j)*time.Microsecond) {
				want += 8
			}
		}
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
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
