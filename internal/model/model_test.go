package model

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestAllNetworksValidate(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("All() returned %d networks, want 13 (paper's benchmark set)", len(all))
	}
	for _, n := range all {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

func TestNetworkShortNamesMatchPaper(t *testing.T) {
	want := []string{"let", "alex", "mob", "rest", "goo", "dlrm", "algo",
		"ds2", "fast", "ncf", "sent", "trf", "yolo"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("network %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Names hands out a fresh list each call.
	got[0] = "changed"
	if again := Names(); again[0] != want[0] {
		t.Errorf("a caller's edit reached the next Names(): %v", again)
	}
}

// TestZooNamesMatchNetworks: each zoo entry's name is the short name
// of the network its constructor builds.
func TestZooNamesMatchNetworks(t *testing.T) {
	for _, z := range zoo {
		if n := z.build(); n.Name != z.name {
			t.Errorf("zoo entry %q builds %q", z.name, n.Name)
		}
	}
}

// TestParseListBuildsOnlyWhatItReturns: resolving one workload yields
// the same network All() does, without building the other twelve
// layer tables.
func TestParseListBuildsOnlyWhatItReturns(t *testing.T) {
	nets, err := ParseList("let")
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 1 || !reflect.DeepEqual(nets[0], All()[0]) {
		t.Fatalf("ParseList(let) = %+v, want All()'s let", nets)
	}
	one := testing.AllocsPerRun(20, func() { ParseList("let") }) //nolint:errcheck
	all := testing.AllocsPerRun(20, func() { All() })
	if one*5 >= all {
		t.Errorf("ParseList(let) allocates %v times per call, All() %v: want under a fifth", one, all)
	}
}

func TestByName(t *testing.T) {
	if n := ByName("rest"); n == nil || n.Full != "ResNet-18" {
		t.Errorf("ByName(rest) = %+v", n)
	}
	if n := ByName("nonexistent"); n != nil {
		t.Errorf("ByName(nonexistent) = %v, want nil", n)
	}
}

func TestConvOutputDims(t *testing.T) {
	l := CV("c", 32, 32, 5, 5, 1, 6, 1)
	if l.OfmapH() != 28 || l.OfmapW() != 28 {
		t.Errorf("LeNet conv1 ofmap = %dx%d, want 28x28", l.OfmapH(), l.OfmapW())
	}
	// AlexNet conv1: (227-11)/4+1 = 55.
	a := CV("c", 227, 227, 11, 11, 3, 96, 4)
	if a.OfmapH() != 55 || a.OfmapW() != 55 {
		t.Errorf("AlexNet conv1 ofmap = %dx%d, want 55x55", a.OfmapH(), a.OfmapW())
	}
}

func TestGEMMDims(t *testing.T) {
	l := FC("fc", 128, 512, 256)
	if l.OfmapH() != 128 || l.OfmapW() != 1 || l.OutChannels() != 256 {
		t.Errorf("GEMM dims wrong: %d %d %d", l.OfmapH(), l.OfmapW(), l.OutChannels())
	}
	if l.IfmapBytes() != 128*512 {
		t.Errorf("GEMM ifmap bytes = %d", l.IfmapBytes())
	}
	if l.WeightBytes() != 512*256 {
		t.Errorf("GEMM weight bytes = %d", l.WeightBytes())
	}
	if l.OfmapBytes() != 128*256 {
		t.Errorf("GEMM ofmap bytes = %d", l.OfmapBytes())
	}
	if l.MACs() != 128*512*256 {
		t.Errorf("GEMM MACs = %d", l.MACs())
	}
}

func TestDWConvBytes(t *testing.T) {
	l := DW("dw", 114, 114, 3, 3, 32, 1)
	if l.OutChannels() != 32 {
		t.Errorf("dwconv out channels = %d, want 32", l.OutChannels())
	}
	if l.WeightBytes() != 3*3*32 {
		t.Errorf("dwconv weights = %d, want %d", l.WeightBytes(), 3*3*32)
	}
	if l.MACs() != uint64(112*112*32*9) {
		t.Errorf("dwconv MACs = %d", l.MACs())
	}
}

func TestConvMACsKnownValue(t *testing.T) {
	// LeNet conv2: 10x10x16 output, 5x5x6 kernel = 240k MACs... each
	// output pixel takes 5*5*6 = 150 MACs; 10*10*16 = 1600 px.
	l := CV("c", 14, 14, 5, 5, 6, 16, 1)
	want := uint64(10 * 10 * 16 * 150)
	if l.MACs() != want {
		t.Errorf("conv MACs = %d, want %d", l.MACs(), want)
	}
}

func TestValidateRejectsBadLayers(t *testing.T) {
	bad := []Layer{
		{Name: "neg", Kind: Conv, IfmapH: -1, IfmapW: 8, FiltH: 3, FiltW: 3, Channels: 1, NumFilt: 1, Stride: 1},
		{Name: "nofilt", Kind: Conv, IfmapH: 8, IfmapW: 8, FiltH: 3, FiltW: 3, Channels: 1, NumFilt: 0, Stride: 1},
		{Name: "bigfilt", Kind: Conv, IfmapH: 2, IfmapW: 2, FiltH: 3, FiltW: 3, Channels: 1, NumFilt: 1, Stride: 1},
		{Name: "gemm0", Kind: GEMM, GemmM: 0, Channels: 4, NumFilt: 4},
		{Name: "unknown", Kind: Kind(9), IfmapH: 8, IfmapW: 8},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layer %q validated", l.Name)
		}
	}
}

func TestTotalsPositive(t *testing.T) {
	for _, n := range All() {
		if n.TotalMACs() == 0 {
			t.Errorf("%s: zero MACs", n.Name)
		}
		if n.TotalWeightBytes() == 0 {
			t.Errorf("%s: zero weights", n.Name)
		}
	}
}

func TestKnownModelScales(t *testing.T) {
	// Coarse sanity against public numbers (1 B/element).
	cases := []struct {
		name       string
		minW, maxW uint64 // weight bytes
		minM, maxM uint64 // MACs
	}{
		{"alex", 50e6, 70e6, 0.6e9, 1.5e9}, // ~60M params, ~0.7-1.1 GMACs
		{"rest", 10e6, 13e6, 1.5e9, 2.5e9}, // ~11M params, ~1.8 GMACs
		{"mob", 3e6, 6e6, 0.4e9, 0.8e9},    // ~4.2M params, ~0.57 GMACs
		{"yolo", 10e6, 20e6, 2.5e9, 4.5e9}, // ~15M params, ~3.5 GMACs
	}
	for _, c := range cases {
		n := ByName(c.name)
		w := n.TotalWeightBytes()
		m := n.TotalMACs()
		if w < c.minW || w > c.maxW {
			t.Errorf("%s weights = %d, want in [%d,%d]", c.name, w, c.minW, c.maxW)
		}
		if m < c.minM || m > c.maxM {
			t.Errorf("%s MACs = %d, want in [%d,%d]", c.name, m, c.minM, c.maxM)
		}
	}
}

func TestOfmapChainsToNextIfmap(t *testing.T) {
	// For stacked conv stages with explicit padding conventions the
	// ofmap spatial dims must be positive and non-increasing through a
	// network's conv prefix.
	for _, n := range All() {
		for i, l := range n.Layers {
			if l.OfmapH() <= 0 || l.OfmapW() <= 0 {
				t.Errorf("%s layer %d (%s): non-positive ofmap %dx%d",
					n.Name, i, l.Name, l.OfmapH(), l.OfmapW())
			}
		}
	}
}

func TestKindStrings(t *testing.T) {
	if Conv.String() != "conv" || DWConv.String() != "dwconv" || GEMM.String() != "gemm" {
		t.Error("kind strings wrong")
	}
}

func TestLayerBytesProperty(t *testing.T) {
	// For any valid conv layer, MACs == OfmapBytes * FiltH*FiltW*Channels.
	f := func(ih, iw, fh, fw, c, m, s uint8) bool {
		l := CV("p",
			int(ih%60)+8, int(iw%60)+8,
			int(fh%5)+1, int(fw%5)+1,
			int(c%16)+1, int(m%16)+1, int(s%3)+1)
		if l.Validate() != nil {
			return true // skip invalid shapes
		}
		want := l.OfmapBytes() * uint64(l.FiltH*l.FiltW*l.Channels)
		return l.MACs() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyNetworkInvalid(t *testing.T) {
	n := &Network{Name: "empty"}
	if err := n.Validate(); err == nil {
		t.Error("empty network validated")
	}
}
