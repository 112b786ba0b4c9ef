package explore

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/memprot"
	"repro/internal/model"
	"repro/seda"
)

// workloadNames lists a request's workloads by name, in order.
func workloadNames(nets []*model.Network) []string {
	names := make([]string, len(nets))
	for i, n := range nets {
		names[i] = n.Name
	}
	return names
}

// sameRequest reports whether two resolved requests denote the same
// exploration.
func sameRequest(a, b *Request) bool {
	return a.Spec.Canonical() == b.Spec.Canonical() && a.Base == b.Base &&
		slices.Equal(workloadNames(a.Workloads), workloadNames(b.Workloads)) &&
		a.Scheme == b.Scheme && a.Margin == b.Margin
}

// TestParseRequestDefaults: empty parameters select base edge, the
// full suite, scheme SeDA and a derived margin; repeated and
// case-varied workloads collapse to their first occurrence.
func TestParseRequestDefaults(t *testing.T) {
	req, err := ParseRequest("rows=32", "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if req.Base != seda.EdgeNPU() || req.Scheme != memprot.SchemeSeDA || req.Margin != 0 ||
		!slices.Equal(workloadNames(req.Workloads), model.Names()) {
		t.Fatalf("defaults: base %s scheme %s margin %v workloads %v",
			req.Base.Name, req.Scheme.Name(), req.Margin, workloadNames(req.Workloads))
	}

	one, err := ParseRequest("rows=32", "edge", "let", "SeDA", "")
	if err != nil {
		t.Fatal(err)
	}
	two, err := ParseRequest("rows=32", "Edge", "let,LET, let", "seda", "")
	if err != nil {
		t.Fatal(err)
	}
	if !sameRequest(one, two) || len(two.Workloads) != 1 {
		t.Fatalf("let,LET resolves to %v, want [let]", workloadNames(two.Workloads))
	}
}

// TestParseRequestRejectsMargin: an explicit margin must be a number
// in (0, 1), and NaN, which neither m <= 0 nor m >= 1 catches, is not.
func TestParseRequestRejectsMargin(t *testing.T) {
	for _, margin := range []string{"0", "1", "-0.1", "NaN", "x"} {
		if _, err := ParseRequest("rows=32", "", "", "", margin); err == nil || !strings.Contains(err.Error(), "margin") {
			t.Errorf("margin %q: err %v, want a margin rejection", margin, err)
		}
	}
}

// FuzzParseRequest checks the resolution every explore front end
// applies to its input: it never panics, a resolved workload list has
// no duplicates, and the request's canonical form resolves to an
// equal request.
func FuzzParseRequest(f *testing.F) {
	for _, seed := range [5][5]string{
		{"rows=32", "", "let", "", ""},
		{"channels=2|4,rows=16:32", "Server", "let,LET,ncf", "mgx-64b", "0.2"},
		{"rows=32", "edge", "", "SeDA", "0x1p-3"},
		{"rows=32", "", " rest , goo ,rest", "", "1e-9"},
		{"banks=8", "tpu", "let,,ncf", "rot13", "NaN"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4])
	}
	f.Fuzz(func(t *testing.T, spec, base, workloads, scheme, margin string) {
		req, err := ParseRequest(spec, base, workloads, scheme, margin)
		if err != nil {
			return
		}
		names := workloadNames(req.Workloads)
		sorted := slices.Clone(names)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) != len(names) {
			t.Fatalf("%q resolves to duplicate workloads %v", workloads, names)
		}
		canonMargin := ""
		if req.Margin != 0 {
			canonMargin = strconv.FormatFloat(req.Margin, 'g', -1, 64)
		}
		again, err := ParseRequest(req.Spec.Canonical(), req.Base.Name, strings.Join(names, ","), req.Scheme.Name(), canonMargin)
		if err != nil {
			t.Fatalf("canonical form of (%q, %q, %q, %q, %q) does not resolve: %v", spec, base, workloads, scheme, margin, err)
		}
		if !sameRequest(req, again) {
			t.Fatalf("canonical form of (%q, %q, %q, %q, %q) resolves to a different request", spec, base, workloads, scheme, margin)
		}
	})
}
