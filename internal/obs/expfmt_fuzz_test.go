package obs

import (
	"strings"
	"testing"
)

// FuzzParseProm checks the exposition parser, which reads other
// processes' /metrics scrapes. Arbitrary input must not panic it (nor
// the linter and flattener run on what it accepts), and a registry's
// own exposition — with fuzzed HELP text, label value and sample
// values — must parse back and lint clean, the label value and counter
// value intact.
func FuzzParseProm(f *testing.F) {
	f.Add("# HELP seda_x_total X.\n# TYPE seda_x_total counter\nseda_x_total{k=\"a\\\"b\"} 3\n",
		"Events.", "v", uint64(1), 0.25)
	f.Add("# HELP g G.\n# TYPE g gauge\ng NaN\n", "Level.", "NaN*error(x)", uint64(0), 1e10)
	f.Add("# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"multi\nline \\ help", "a\"b\\c\nd", uint64(1<<63), -1.5)
	f.Fuzz(func(t *testing.T, scrape, help, label string, n uint64, v float64) {
		if fams, err := ParseProm(strings.NewReader(scrape)); err == nil {
			LintProm(fams)
			CounterTotals(fams)
		}

		if strings.TrimSpace(help) == "" {
			help = "Fuzzed family." // registration rejects blank HELP
		}
		r := NewRegistry()
		lbl := Label{Name: "k", Value: label}
		r.Counter("fuzz_events_total", help, lbl).Add(n)
		r.Gauge("fuzz_level", help, lbl).Set(v)
		r.Histogram("fuzz_latency_seconds", help, DurationBuckets, lbl).Observe(v)
		var buf strings.Builder
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseProm(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("registry output does not parse: %v\n%s", err, buf.String())
		}
		if issues := LintProm(fams); len(issues) > 0 {
			t.Fatalf("registry output fails lint: %v\n%s", issues, buf.String())
		}
		s, ok := fams["fuzz_events_total"].Sample("fuzz_events_total", map[string]string{"k": label})
		if !ok || s.Value != float64(n) {
			t.Fatalf("counter sample %+v (found %v), want value %d labelled k=%q", s, ok, n, label)
		}
	})
}
