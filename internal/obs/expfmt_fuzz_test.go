package obs

import (
	"strings"
	"testing"
	"time"
)

// FuzzParseProm checks the exposition parser, which reads other
// processes' /metrics scrapes. Arbitrary input must not panic it, and
// a registry's own exposition — with fuzzed HELP text, label value and
// sample values — must parse back, the label value and counter value
// intact.
func FuzzParseProm(f *testing.F) {
	f.Add("# HELP seda_x_total X.\n# TYPE seda_x_total counter\nseda_x_total{k=\"a\\\"b\"} 3\n",
		"Events.", "v", uint64(1), 0.25)
	f.Add("# HELP g G.\n# TYPE g gauge\ng NaN\n", "Level.", "NaN*error(x)", uint64(0), 1e10)
	f.Add("# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"multi\nline \\ help", "a\"b\\c\nd", uint64(1<<63), -1.5)
	f.Add(boundSpelledTwice, "Events.", "v", uint64(1), 0.0)
	f.Add(nanBound, "Events.", "v", uint64(1), 0.0)
	f.Fuzz(func(t *testing.T, scrape, help, label string, n uint64, v float64) {
		_, _ = ParseProm(strings.NewReader(scrape)) // must not panic

		if strings.TrimSpace(help) == "" {
			help = "Fuzzed family." // registration rejects blank HELP
		}
		r := NewRegistry()
		lbl := Label{Name: "k", Value: label}
		r.Counter("fuzz_events_total", help, lbl).Add(n)
		r.Gauge("fuzz_level", help, lbl).Set(v)
		r.Histogram("fuzz_latency_seconds", help, lbl).Observe(time.Duration(n))
		var buf strings.Builder
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseProm(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("registry output does not parse: %v\n%s", err, buf.String())
		}
		s, ok := fams["fuzz_events_total"].Sample("fuzz_events_total", map[string]string{"k": label})
		if !ok || s.Value != float64(n) {
			t.Fatalf("counter sample %+v (found %v), want value %d labelled k=%q", s, ok, n, label)
		}
	})
}
