package explore

import (
	"math"
	"strings"
	"testing"

	"repro/seda"
)

func TestParseSpecRangesAndLists(t *testing.T) {
	cases := []struct {
		in        string
		canonical string
		points    int
	}{
		{"rows=32:256", "rows=32|64|128|256", 4},
		{"rows=32:256:2x", "rows=32|64|128|256", 4},
		{"rows=32:250:2x", "rows=32|64|128", 3},
		{"rows=16:48:+16", "rows=16|32|48", 3},
		{"sram=480K:1920K", "sram=491520|983040|1966080", 3},
		{"sram=1M|3M", "sram=1048576|3145728", 2},
		{"freq=1G:4G", "freq=1e+09|2e+09|4e+09", 3},
		{"bw=2.5G|10G", "bw=2.5e+09|1e+10", 2},
		{"channels=2|4|8,rows=32|64", "rows=32|64,channels=2|4|8", 6},
		{"CHANNELS=4", "channels=4", 1},
		{"rows=32|32|32", "rows=32", 1},
		{"window=8:32:2x,burstbytes=64", "burstbytes=64,window=8|16|32", 3},
	}
	for _, tc := range cases {
		s, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if got := s.Canonical(); got != tc.canonical {
			t.Errorf("%q canonicalizes to %q, want %q", tc.in, got, tc.canonical)
		}
		if got := s.NumPoints(); got != tc.points {
			t.Errorf("%q: %d points, want %d", tc.in, got, tc.points)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		in      string
		errWant string
	}{
		{"", "empty spec"},
		{"rows", "not name=values"},
		{"pes=64", "unknown axis"},
		{"rows=32,rows=64", "twice"},
		{"rows=64:32", "descends"},
		{"rows=32:64:1x", "factor > 1"},
		{"rows=32:64:0.5x", "factor > 1"},
		{"rows=32:64:-16", "neither"},
		{"rows=32:64:16", "neither"},
		{"rows=1:1M:+1", "expands past"},
		{"rows=0", "not positive"},
		{"rows=-4", "not positive"},
		{"sram=1.5", "not an integer"},
		{"rows=1:2:3:4", "more than two"},
		{"rows=abc", "value"},
		{"rows=1e30", "exceeds"},
		{"rows=9007199254740000:9007199254740992:+1000", "exceeds"},
		{"channels=inf", "not finite"},
		{"freq=nan", "not finite"},
		{"bw=1e308T", "not finite"},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.in)
		if err == nil {
			t.Errorf("%q: parsed, want error containing %q", tc.in, tc.errWant)
			continue
		}
		if !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%q: err %q, want it to contain %q", tc.in, err, tc.errWant)
		}
	}
}

// TestNumPointsSaturates: a maximal cross product (six axes of
// maxAxisValues values each is 2^72 points) must saturate at
// math.MaxInt rather than wrap — a wrapped product would pass the
// MaxPoints guard and let one request materialize the whole grid.
func TestNumPointsSaturates(t *testing.T) {
	s, err := ParseSpec("rows=1:4096:+1,cols=1:4096:+1,sram=1:4096:+1,channels=1:4096:+1,banks=1:4096:+1,window=1:4096:+1")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumPoints(); got != math.MaxInt {
		t.Errorf("NumPoints = %d, want math.MaxInt saturation", got)
	}
}

// TestSpecPointsSquareArray: sweeping rows without cols keeps the
// array square; sweeping both leaves them independent.
func TestSpecPointsSquareArray(t *testing.T) {
	s, err := ParseSpec("rows=16|32")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points(seda.EdgeNPU()) {
		if p.ArrayCols != p.ArrayRows {
			t.Errorf("square rule broken: %dx%d", p.ArrayRows, p.ArrayCols)
		}
	}
	s, err = ParseSpec("rows=16|32,cols=8")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points(seda.EdgeNPU()) {
		if p.ArrayCols != 8 {
			t.Errorf("explicit cols overridden: %dx%d", p.ArrayRows, p.ArrayCols)
		}
	}
}

// TestSpecPointsCanonicalOrder: enumeration is the odometer over
// table-ordered axes with the last axis fastest, independent of the
// axis order written in the spec.
func TestSpecPointsCanonicalOrder(t *testing.T) {
	a, _ := ParseSpec("rows=16|32,channels=2|4")
	b, _ := ParseSpec("channels=2|4,rows=16|32")
	pa, pb := a.Points(seda.EdgeNPU()), b.Points(seda.EdgeNPU())
	if len(pa) != 4 || len(pb) != 4 {
		t.Fatalf("want 4 points, got %d and %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name {
			t.Errorf("point %d: %q vs %q — order depends on spec writing", i, pa[i].Name, pb[i].Name)
		}
	}
	// Last axis (channels) fastest.
	if pa[0].Channels != 2 || pa[1].Channels != 4 || pa[0].ArrayRows != 16 || pa[2].ArrayRows != 32 {
		t.Errorf("odometer order wrong: %+v", []string{pa[0].Name, pa[1].Name, pa[2].Name, pa[3].Name})
	}
}

// TestPointNameAliasesDefaults: a knob left at zero and the same knob
// set to its DDR4-like default derive the same memory system, so the
// canonical point name must coincide (and with it the fingerprint).
func TestPointNameAliasesDefaults(t *testing.T) {
	explicit := seda.EdgeNPU()
	legacy := explicit
	legacy.BanksPerChan, legacy.RowBytes, legacy.BurstBytes, legacy.WindowSize = 0, 0, 0, 0
	if PointName(explicit) != PointName(legacy) {
		t.Errorf("zero knobs name %q, explicit defaults %q", PointName(legacy), PointName(explicit))
	}
}
