package memprot

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/scalesim"
	"repro/internal/trace"
)

func edgeNet(t *testing.T, name string) *scalesim.NetworkResult {
	t.Helper()
	cfg, err := scalesim.New(32, 32, 480*1024)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cfg.SimulateNetwork(model.ByName(name))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func serverNet(t *testing.T, name string) *scalesim.NetworkResult {
	t.Helper()
	cfg, err := scalesim.New(256, 256, 24*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cfg.SimulateNetwork(model.ByName(name))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// protectAll is ProtectAllArenaCtx without an arena or cancellation.
func protectAll(schemes []Scheme, net *scalesim.NetworkResult, opts Options) ([]*Result, error) {
	return ProtectAllArenaCtx(context.Background(), schemes, net, opts, nil)
}

// flatResult is one scheme's protected network with every layer's
// flat augmented trace (spine and overlay merged): the seed pipeline's
// shape, kept as the reference the shared-spine overlay path is
// checked against.
type flatResult struct {
	Scheme Scheme
	Layers []flatLayer
}

type flatLayer struct {
	ProtectedLayer
	Trace *trace.Trace
}

// protectFlat evaluates one scheme and materializes every layer.
func protectFlat(s Scheme, net *scalesim.NetworkResult, opts Options) (*flatResult, error) {
	rs, err := protectAll([]Scheme{s}, net, opts)
	if err != nil {
		return nil, err
	}
	r := &flatResult{Scheme: s, Layers: make([]flatLayer, len(rs[0].Layers))}
	for i, pl := range rs[0].Layers {
		r.Layers[i] = flatLayer{pl, pl.Deltas.Materialize(pl.Spine)}
	}
	return r, nil
}

func protect(t *testing.T, s Scheme, net *scalesim.NetworkResult) *flatResult {
	t.Helper()
	r, err := protectFlat(s, net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TotalDataBytes sums baseline traffic across layers.
func (r *flatResult) TotalDataBytes() uint64 {
	var s uint64
	for i := range r.Layers {
		s += r.Layers[i].Overhead.DataBytes
	}
	return s
}

// TotalMetaBytes sums protection overhead across layers.
func (r *flatResult) TotalMetaBytes() uint64 {
	var s uint64
	for i := range r.Layers {
		s += r.Layers[i].Overhead.MetaBytes()
	}
	return s
}

// TrafficOverheadRatio returns (data+meta)/data − 1, the normalized
// memory-traffic overhead of Fig. 5.
func (r *flatResult) TrafficOverheadRatio() float64 {
	d := r.TotalDataBytes()
	if d == 0 {
		return 0
	}
	return float64(r.TotalMetaBytes()) / float64(d)
}

// classBytes sums a flat trace's bytes by class.
func classBytes(tr *trace.Trace) map[trace.Class]uint64 {
	m := map[trace.Class]uint64{}
	for _, a := range tr.Accesses {
		m[a.Class] += uint64(a.Bytes)
	}
	return m
}

// metaBytes sums everything a protection scheme added to a trace.
func metaBytes(tr *trace.Trace) uint64 {
	m := classBytes(tr)
	return m[trace.MACMeta] + m[trace.VNMeta] + m[trace.TreeMeta] + m[trace.OverFetch]
}

func TestSchemeNames(t *testing.T) {
	cases := map[string]Scheme{
		"Baseline": SchemeBaseline,
		"SGX-64B":  SchemeSGX64,
		"SGX-512B": SchemeSGX512,
		"MGX-64B":  SchemeMGX64,
		"MGX-512B": SchemeMGX512,
		"SeDA":     SchemeSeDA,
	}
	for want, s := range cases {
		if got := s.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestSchemeValidate(t *testing.T) {
	bad := []Scheme{
		{Kind: SGX, Block: 0},
		{Kind: SGX, Block: 100},
		{Kind: MGX, Block: -64},
		{Kind: Kind(9)},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v validated", s)
		}
	}
	for _, s := range AllSchemes() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestBaselinePassThrough(t *testing.T) {
	net := edgeNet(t, "rest")
	r := protect(t, SchemeBaseline, net)
	if r.TotalMetaBytes() != 0 {
		t.Errorf("baseline meta bytes = %d", r.TotalMetaBytes())
	}
	if r.TotalDataBytes() != net.TotalDataBytes() {
		t.Errorf("baseline data bytes %d != network %d",
			r.TotalDataBytes(), net.TotalDataBytes())
	}
	var accesses int
	for _, pl := range r.Layers {
		accesses += pl.Trace.Len()
	}
	var orig int
	for _, lr := range net.Layers {
		orig += lr.Trace.Len()
	}
	if accesses != orig {
		t.Errorf("baseline added/removed accesses: %d vs %d", accesses, orig)
	}
}

func TestDataBytesInvariantAcrossSchemes(t *testing.T) {
	net := edgeNet(t, "mob")
	want := net.TotalDataBytes()
	for _, s := range AllSchemes() {
		r := protect(t, s, net)
		if r.TotalDataBytes() != want {
			t.Errorf("%s: data bytes %d != baseline %d", s.Name(), r.TotalDataBytes(), want)
		}
	}
}

// The central ordering claim of Fig. 5: per workload,
// SGX-64B >= MGX-64B >= MGX-512B and SGX-64B >= SGX-512B, and SeDA is
// the cheapest protection.
func TestSchemeOverheadOrdering(t *testing.T) {
	for _, name := range model.Names() {
		net := edgeNet(t, name)
		oh := map[string]float64{}
		for _, s := range AllSchemes() {
			r := protect(t, s, net)
			oh[s.Name()] = r.TrafficOverheadRatio()
		}
		if oh["SGX-64B"] < oh["MGX-64B"] {
			t.Errorf("%s: SGX-64B %.4f < MGX-64B %.4f", name, oh["SGX-64B"], oh["MGX-64B"])
		}
		if oh["SGX-64B"] < oh["SGX-512B"] {
			t.Errorf("%s: SGX-64B %.4f < SGX-512B %.4f", name, oh["SGX-64B"], oh["SGX-512B"])
		}
		if oh["MGX-64B"] < oh["MGX-512B"] {
			t.Errorf("%s: MGX-64B %.4f < MGX-512B %.4f", name, oh["MGX-64B"], oh["MGX-512B"])
		}
		for _, other := range []string{"SGX-64B", "SGX-512B", "MGX-64B", "MGX-512B"} {
			if oh["SeDA"] > oh[other] {
				t.Errorf("%s: SeDA %.4f > %s %.4f", name, oh["SeDA"], other, oh[other])
			}
		}
		if oh["Baseline"] != 0 {
			t.Errorf("%s: baseline overhead %.4f != 0", name, oh["Baseline"])
		}
	}
}

func TestMGX64RawMACOverheadNear12Percent(t *testing.T) {
	// MGX-64B's overhead is 8B MAC per 64B block plus alignment
	// charges: slightly above 12.5%, never below ~12%, and bounded.
	for _, name := range []string{"alex", "rest", "yolo", "trf"} {
		r := protect(t, SchemeMGX64, edgeNet(t, name))
		oh := r.TrafficOverheadRatio()
		if oh < 0.115 || oh > 0.16 {
			t.Errorf("%s: MGX-64B overhead = %.4f, want ~0.125", name, oh)
		}
	}
}

func TestSeDANearZeroOverhead(t *testing.T) {
	for _, name := range model.Names() {
		r := protect(t, SchemeSeDA, edgeNet(t, name))
		oh := r.TrafficOverheadRatio()
		if oh > 0.01 {
			t.Errorf("%s: SeDA overhead = %.4f, want < 1%%", name, oh)
		}
		if oh < 0 {
			t.Errorf("%s: negative overhead %.4f", name, oh)
		}
	}
}

func TestSeDAPicksOptBlkPerLayer(t *testing.T) {
	r := protect(t, SchemeSeDA, edgeNet(t, "rest"))
	for _, pl := range r.Layers {
		if pl.Overhead.OptBlk < 64 {
			t.Errorf("layer %d: optBlk = %d", pl.LayerID, pl.Overhead.OptBlk)
		}
	}
}

func TestSGXEmitsAllMetadataClasses(t *testing.T) {
	r := protect(t, SchemeSGX64, edgeNet(t, "alex"))
	var mac, vn, tree uint64
	for _, pl := range r.Layers {
		mac += pl.Overhead.MACBytes
		vn += pl.Overhead.VNBytes
		tree += pl.Overhead.TreeBytes
	}
	if mac == 0 || vn == 0 || tree == 0 {
		t.Errorf("SGX metadata mac/vn/tree = %d/%d/%d, all must be > 0", mac, vn, tree)
	}
}

func TestMGXNoVNOrTreeTraffic(t *testing.T) {
	r := protect(t, SchemeMGX64, edgeNet(t, "alex"))
	for _, pl := range r.Layers {
		if pl.Overhead.VNBytes != 0 || pl.Overhead.TreeBytes != 0 {
			t.Fatalf("MGX layer %d has VN/tree traffic %d/%d",
				pl.LayerID, pl.Overhead.VNBytes, pl.Overhead.TreeBytes)
		}
		for _, a := range pl.Trace.Accesses {
			if a.Class == trace.VNMeta || a.Class == trace.TreeMeta {
				t.Fatalf("MGX trace contains %s access", a.Class)
			}
		}
	}
}

func TestCoarserBlocksLessMACTraffic(t *testing.T) {
	net := edgeNet(t, "rest")
	r64 := protect(t, SchemeMGX64, net)
	r512 := protect(t, SchemeMGX512, net)
	var m64, m512 uint64
	for i := range r64.Layers {
		m64 += r64.Layers[i].Overhead.MACBytes
		m512 += r512.Layers[i].Overhead.MACBytes
	}
	if m512 >= m64 {
		t.Errorf("512B MAC traffic %d >= 64B %d", m512, m64)
	}
	// Roughly 8x fewer blocks -> roughly 8x less MAC traffic.
	if ratio := float64(m64) / float64(m512); ratio < 6 || ratio > 10 {
		t.Errorf("MAC traffic ratio 64B/512B = %.2f, want ~8", ratio)
	}
}

func TestCoarserBlocksMoreOverFetch(t *testing.T) {
	net := edgeNet(t, "goo")
	r64 := protect(t, SchemeMGX64, net)
	r512 := protect(t, SchemeMGX512, net)
	var o64, o512 uint64
	for i := range r64.Layers {
		o64 += r64.Layers[i].Overhead.OverFetchBytes
		o512 += r512.Layers[i].Overhead.OverFetchBytes
	}
	if o512 < o64 {
		t.Errorf("512B over-fetch %d < 64B %d", o512, o64)
	}
}

func TestTraceStatsMatchOverheadCounters(t *testing.T) {
	net := edgeNet(t, "ds2")
	for _, s := range AllSchemes() {
		r := protect(t, s, net)
		for _, pl := range r.Layers {
			if data := classBytes(pl.Trace)[trace.Data]; data != pl.Overhead.DataBytes {
				t.Errorf("%s layer %d: trace data %d != counter %d",
					s.Name(), pl.LayerID, data, pl.Overhead.DataBytes)
			}
			if meta := metaBytes(pl.Trace); meta != pl.Overhead.MetaBytes() {
				t.Errorf("%s layer %d: trace meta %d != counter %d",
					s.Name(), pl.LayerID, meta, pl.Overhead.MetaBytes())
			}
		}
	}
}

func TestSGXCacheFiltersRepeatedAccess(t *testing.T) {
	// Server SRAM keeps tensors resident so each metadata line is
	// touched few times; edge re-streams weights, and the caches
	// should filter some of the repeats. Either way, SGX MAC traffic
	// must not exceed the uncached worst case (8B per block touched
	// per access, line-rounded).
	net := serverNet(t, "rest")
	r := protect(t, SchemeSGX64, net)
	rm := protect(t, SchemeMGX64, net)
	var sgxMAC, mgxMAC uint64
	for i := range r.Layers {
		sgxMAC += r.Layers[i].Overhead.MACBytes
		mgxMAC += rm.Layers[i].Overhead.MACBytes
	}
	// MGX is the uncached per-access cost; SGX's cached cost may add
	// at most writeback traffic on top (2x bound).
	if sgxMAC > 2*mgxMAC+uint64(DefaultOptions().MACCacheBytes) {
		t.Errorf("SGX MAC traffic %d far above uncached bound %d", sgxMAC, mgxMAC)
	}
}

func TestFeatureRows(t *testing.T) {
	f := SchemeSGX64.FeatureRow()
	if f.OffChipMetadata != "MAC,VN,IT" || f.TilingAware || f.EncryptionScalable {
		t.Errorf("SGX features wrong: %+v", f)
	}
	f = SchemeMGX512.FeatureRow()
	if f.OffChipMetadata != "MAC" || f.IntegrityGranularity != "512B" {
		t.Errorf("MGX features wrong: %+v", f)
	}
	f = SchemeSeDA.FeatureRow()
	if !f.TilingAware || !f.EncryptionScalable {
		t.Errorf("SeDA features wrong: %+v", f)
	}
}

func TestMetadataAddressesDisjointFromData(t *testing.T) {
	net := edgeNet(t, "alex")
	for _, s := range []Scheme{SchemeSGX64, SchemeMGX512, SchemeSeDA} {
		r := protect(t, s, net)
		for _, pl := range r.Layers {
			for _, a := range pl.Trace.Accesses {
				isMeta := a.Class == trace.MACMeta || a.Class == trace.VNMeta || a.Class == trace.TreeMeta
				if isMeta && a.Addr < MACBase {
					t.Fatalf("%s: metadata access at data address %#x", s.Name(), a.Addr)
				}
				if a.Class == trace.Data && a.Addr >= MACBase {
					t.Fatalf("%s: data access at metadata address %#x", s.Name(), a.Addr)
				}
			}
		}
	}
}

func TestProtectRejectsInvalidScheme(t *testing.T) {
	net := edgeNet(t, "let")
	if _, err := protectFlat(Scheme{Kind: SGX, Block: 7}, net, DefaultOptions()); err == nil {
		t.Error("invalid scheme accepted")
	}
}

// TestArenaRecyclesReleasedOverlaysFIFO: released overlays come back
// in the order they were pushed, emptied but with their capacity kept,
// so a repeated evaluation refills the buffers the previous one grew.
func TestArenaRecyclesReleasedOverlaysFIFO(t *testing.T) {
	overlay := func(n, c int) *trace.Overlay {
		return &trace.Overlay{Accesses: make([]trace.Access, n, c), Anchors: make([]int32, n, c)}
	}
	first, second, empty := overlay(10, 1000), overlay(600, 1000), overlay(0, 64)
	a := NewArena()
	a.Release([]*Result{{Layers: []ProtectedLayer{{Deltas: first}, {Deltas: second}, {Deltas: empty}}}})
	for i, want := range []*trace.Overlay{first, second, empty} {
		c := cap(want.Accesses)
		if got := a.get(); got != want || got.Len() != 0 || cap(got.Accesses) != c {
			t.Errorf("get %d: %p (len %d, cap %d), want %p reset with cap %d", i, got, got.Len(), cap(got.Accesses), want, c)
		}
	}
	if a.get() == first {
		t.Error("an overlay was handed out twice")
	}
}
