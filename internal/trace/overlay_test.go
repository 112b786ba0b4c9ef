package trace

import (
	"reflect"
	"testing"
)

// TestAppendCoalesceMerges: a contiguous same-anchor, same-cycle,
// same-kind run folds into one growing entry.
func TestAppendCoalesceMerges(t *testing.T) {
	o := &Overlay{}
	base := Access{Cycle: 7, Addr: 0x1000, Bytes: 64, Kind: Read, Class: MACMeta, Tensor: Metadata, Layer: 3, Tile: 9}
	o.AppendCoalesce(5, base)
	for i := 1; i < 4; i++ {
		a := base
		a.Addr = base.Addr + uint64(i)*64
		o.AppendCoalesce(5, a)
	}
	if o.Len() != 1 {
		t.Fatalf("contiguous run kept %d entries, want 1", o.Len())
	}
	got := o.Accesses[0]
	if got.Addr != 0x1000 || got.Bytes != 256 {
		t.Errorf("merged entry = %#x/%dB, want 0x1000/256B", got.Addr, got.Bytes)
	}
	if o.Anchors[0] != 5 {
		t.Errorf("merged anchor = %d, want 5", o.Anchors[0])
	}
}

// TestAppendCoalesceRefusals: every condition that would change the
// merged stream's burst explode (or its attribution) blocks the merge.
func TestAppendCoalesceRefusals(t *testing.T) {
	base := Access{Cycle: 7, Addr: 0x1000, Bytes: 64, Kind: Read, Class: MACMeta, Tensor: Metadata, Layer: 3, Tile: 9}
	next := base
	next.Addr = 0x1040
	cases := []struct {
		name   string
		anchor int
		mutate func(*Access)
		first  *Access // optional replacement first entry
	}{
		{name: "anchor gap", anchor: 6},
		{name: "cycle", anchor: 5, mutate: func(a *Access) { a.Cycle = 8 }},
		{name: "kind", anchor: 5, mutate: func(a *Access) { a.Kind = Write }},
		{name: "class", anchor: 5, mutate: func(a *Access) { a.Class = VNMeta }},
		{name: "layer", anchor: 5, mutate: func(a *Access) { a.Layer = 4 }},
		{name: "tile", anchor: 5, mutate: func(a *Access) { a.Tile = 10 }},
		{name: "hole", anchor: 5, mutate: func(a *Access) { a.Addr = 0x1080 }},
		{name: "overlap", anchor: 5, mutate: func(a *Access) { a.Addr = 0x1000 }},
		{name: "unaligned prev", anchor: 5, first: &Access{Cycle: 7, Addr: 0x1000, Bytes: 40, Kind: Read, Class: MACMeta, Tensor: Metadata, Layer: 3, Tile: 9}},
	}
	for _, tc := range cases {
		o := &Overlay{}
		first := base
		if tc.first != nil {
			first = *tc.first
		}
		o.AppendCoalesce(5, first)
		a := next
		if tc.first != nil {
			a.Addr = first.Addr + uint64(first.Bytes)
		}
		if tc.mutate != nil {
			tc.mutate(&a)
		}
		o.AppendCoalesce(tc.anchor, a)
		if o.Len() != 2 {
			t.Errorf("%s: merged across a non-equivalence (%d entries)", tc.name, o.Len())
		}
	}
}

// TestAppendCoalesceBurstEquivalence: the coalesced and raw overlays
// explode into the same 64-byte burst sequence (the invariant the DRAM
// equivalence rests on), for aligned and unaligned tails.
func TestAppendCoalesceBurstEquivalence(t *testing.T) {
	raw := &Overlay{}
	coal := &Overlay{}
	emit := []Access{
		{Cycle: 1, Addr: 0x2010, Bytes: 64, Kind: Write, Class: VNMeta},  // unaligned start
		{Cycle: 1, Addr: 0x2050, Bytes: 64, Kind: Write, Class: VNMeta},  // contiguous: merges
		{Cycle: 1, Addr: 0x2090, Bytes: 100, Kind: Write, Class: VNMeta}, // contiguous, odd tail: merges
		{Cycle: 1, Addr: 0x20f4, Bytes: 64, Kind: Write, Class: VNMeta},  // prev tail unaligned: no merge
	}
	for _, a := range emit {
		raw.Append(2, a)
		coal.AppendCoalesce(2, a)
	}
	if coal.Len() >= raw.Len() {
		t.Fatalf("coalescing kept %d of %d entries", coal.Len(), raw.Len())
	}
	bursts := func(o *Overlay) []uint64 {
		var out []uint64
		for _, a := range o.Accesses {
			n := (a.Bytes + 63) / 64
			for b := uint32(0); b < n; b++ {
				out = append(out, a.Addr/64+uint64(b))
			}
		}
		return out
	}
	rb, cb := bursts(raw), bursts(coal)
	if len(rb) != len(cb) {
		t.Fatalf("burst counts differ: raw %d, coalesced %d", len(rb), len(cb))
	}
	for i := range rb {
		if rb[i] != cb[i] {
			t.Fatalf("burst %d differs: raw %#x, coalesced %#x", i, rb[i], cb[i])
		}
	}
}

func spineOf(n int) *Trace {
	t := &Trace{}
	for i := 0; i < n; i++ {
		t.Append(Access{Cycle: uint64(i), Addr: uint64(i) * 64, Bytes: 64, Class: Data})
	}
	return t
}

func TestOverlayMergeOrder(t *testing.T) {
	spine := spineOf(3)
	ov := &Overlay{}
	ov.Append(0, Access{Addr: 0xA0, Class: MACMeta}) // before spine[0]
	ov.Append(1, Access{Addr: 0xA1, Class: MACMeta}) // after spine[0]
	ov.Append(1, Access{Addr: 0xA2, Class: VNMeta})  // same anchor keeps order
	ov.Append(3, Access{Addr: 0xA3, Class: VNMeta})  // after the whole spine

	var got []uint64
	ForEachMerged(spine, ov, func(a *Access) { got = append(got, a.Addr) })
	want := []uint64{0xA0, 0, 0xA1, 0xA2, 64, 128, 0xA3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged order = %#x, want %#x", got, want)
	}

	m := ov.Materialize(spine)
	if m.Len() != mergedLen(spine, ov) {
		t.Fatalf("materialized length %d != %d", m.Len(), mergedLen(spine, ov))
	}
	for i, a := range m.Accesses {
		if a.Addr != want[i] {
			t.Errorf("materialized[%d].Addr = %#x, want %#x", i, a.Addr, want[i])
		}
	}
}

func TestOverlayEmptyAndNil(t *testing.T) {
	spine := spineOf(2)
	var got int
	ForEachMerged(spine, nil, func(a *Access) { got++ })
	if got != 2 {
		t.Errorf("nil overlay walked %d accesses, want 2", got)
	}
	ov := &Overlay{}
	m := ov.Materialize(spine)
	if !reflect.DeepEqual(m.Accesses, spine.Accesses) {
		t.Error("empty overlay materialization differs from spine")
	}
}

func TestOverlayAnchorMonotonicity(t *testing.T) {
	ov := &Overlay{}
	ov.Append(2, Access{})
	defer func() {
		if recover() == nil {
			t.Error("decreasing anchor did not panic")
		}
	}()
	ov.Append(1, Access{})
}

func TestOverlayResetKeepsCapacity(t *testing.T) {
	ov := &Overlay{}
	for i := 0; i < 100; i++ {
		ov.Append(i, Access{Addr: uint64(i)})
	}
	capA, capN := cap(ov.Accesses), cap(ov.Anchors)
	ov.Reset()
	if ov.Len() != 0 {
		t.Fatalf("Reset left %d accesses", ov.Len())
	}
	if cap(ov.Accesses) != capA || cap(ov.Anchors) != capN {
		t.Error("Reset dropped backing arrays")
	}
	ov.Append(0, Access{Addr: 7}) // refilling after Reset restarts anchors
}
