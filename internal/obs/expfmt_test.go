package obs

import (
	"strings"
	"testing"
)

func parse(t *testing.T, text string) map[string]*PromFamily {
	t.Helper()
	fams, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseProm: %v", err)
	}
	return fams
}

func mustFail(t *testing.T, text, wantSub string) {
	t.Helper()
	_, err := ParseProm(strings.NewReader(text))
	if err == nil {
		t.Fatalf("ParseProm accepted malformed input:\n%s", text)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not mention %q", err, wantSub)
	}
}

func TestParseWellFormed(t *testing.T) {
	fams := parse(t, `
# HELP seda_http_requests_total Requests.
# TYPE seda_http_requests_total counter
seda_http_requests_total 3
# HELP seda_cache_inflight Inflight computes.
# TYPE seda_cache_inflight gauge
seda_cache_inflight 0
# HELP seda_request_duration_seconds Request latency.
# TYPE seda_request_duration_seconds histogram
seda_request_duration_seconds_bucket{path="/v1/sweep",le="0.1"} 1
seda_request_duration_seconds_bucket{path="/v1/sweep",le="+Inf"} 2
seda_request_duration_seconds_sum{path="/v1/sweep"} 0.3
seda_request_duration_seconds_count{path="/v1/sweep"} 2
`)
	if len(fams) != 3 {
		t.Fatalf("families = %d", len(fams))
	}
	if v, err := fams["seda_http_requests_total"].Value("seda_http_requests_total", nil); err != nil || v != 3 {
		t.Fatalf("requests = %v err=%v", v, err)
	}
	n, err := fams["seda_request_duration_seconds"].HistCount(map[string]string{"path": "/v1/sweep"})
	if err != nil || n != 2 {
		t.Fatalf("hist count = %v err=%v", n, err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct{ name, text, wantSub string }{
		{"sample without family", "seda_x_total 1\n", "no declared family"},
		{"sample before TYPE", "# HELP seda_x_total h\nseda_x_total 1\n", "missing HELP or TYPE"},
		{"unknown type", "# HELP x h\n# TYPE x banana\n", "unknown TYPE"},
		{"missing type", "# HELP x h\n# TYPE x\n", `unknown TYPE "" for x`},
		{"repeated HELP", "# HELP x h\n# HELP x h\n", "repeated HELP"},
		{"duplicate series", "# HELP x_total h\n# TYPE x_total counter\nx_total 1\nx_total 2\n", "duplicate series"},
		{"bad value", "# HELP x h\n# TYPE x gauge\nx pony\n", "bad value"},
		{"bad label name", "# HELP x h\n# TYPE x gauge\nx{__reserved=\"v\"} 1\n", "invalid label name"},
		{"unterminated labels", "# HELP x h\n# TYPE x gauge\nx{a=\"v\" 1\n", "unterminated"},
		{"bad escape", "# HELP x h\n# TYPE x gauge\nx{a=\"\\q\"} 1\n", "bad escape"},
		{"trailing timestamp", "# HELP x h\n# TYPE x gauge\nx 1 123456\n", "trailing"},
		{"non-cumulative buckets", `# HELP h_seconds h
# TYPE h_seconds histogram
h_seconds_bucket{le="1"} 5
h_seconds_bucket{le="+Inf"} 3
h_seconds_sum 1
h_seconds_count 3
`, "not cumulative"},
		{"missing +Inf", `# HELP h_seconds h
# TYPE h_seconds histogram
h_seconds_bucket{le="1"} 1
h_seconds_sum 1
h_seconds_count 1
`, "+Inf"},
		{"count mismatch", `# HELP h_seconds h
# TYPE h_seconds histogram
h_seconds_bucket{le="+Inf"} 2
h_seconds_sum 1
h_seconds_count 3
`, "!= count"},
		{"bound spelled twice", boundSpelledTwice, "not strictly ascending"},
		{"NaN bound", nanBound, "NaN bucket bound"},
		{"incomplete histogram", `# HELP h_seconds h
# TYPE h_seconds histogram
h_seconds_bucket{le="+Inf"} 2
`, "incomplete"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { mustFail(t, c.text, c.wantSub) })
	}
}

// Two histograms whose bounds are not strictly ascending numbers: one
// bound under two spellings, and an le that is not a number at all.
const (
	boundSpelledTwice = `# HELP h_seconds h
# TYPE h_seconds histogram
h_seconds_bucket{le="1"} 1
h_seconds_bucket{le="1.0"} 1
h_seconds_bucket{le="+Inf"} 1
h_seconds_sum 1
h_seconds_count 1
`
	nanBound = `# HELP h_seconds h
# TYPE h_seconds histogram
h_seconds_bucket{le="NaN"} 1
h_seconds_bucket{le="+Inf"} 1
h_seconds_sum 1
h_seconds_count 1
`
)

func TestParseEscapedLabels(t *testing.T) {
	fams := parse(t, `# HELP seda_build_info b
# TYPE seda_build_info gauge
seda_build_info{revision="a\"b\\c\nd"} 1
`)
	want := "a\"b\\c\nd"
	if _, ok := fams["seda_build_info"].Sample("seda_build_info", map[string]string{"revision": want}); !ok {
		t.Fatalf("escaped label did not decode: %+v", fams["seda_build_info"].Samples)
	}
}

func TestValueErrors(t *testing.T) {
	fams := parse(t, "# HELP g h\n# TYPE g gauge\ng 1\n")
	if _, err := fams["g"].Value("g", map[string]string{"missing": "x"}); err == nil {
		t.Fatal("Value with unmatched labels did not error")
	}
}
