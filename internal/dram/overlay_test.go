package dram

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// overlayPair builds a spine of n data accesses plus a metadata
// overlay sprinkling line reads before, between and after them.
func overlayPair(n int) (*trace.Trace, *trace.Overlay) {
	spine := &trace.Trace{}
	for i := 0; i < n; i++ {
		spine.Append(trace.Access{
			Cycle: uint64(i * 3),
			Addr:  0x1000_0000 + uint64(i)*512,
			Bytes: 512,
			Kind:  trace.Kind(i % 2),
			Class: trace.Data,
		})
	}
	ov := &trace.Overlay{}
	ov.Append(0, trace.Access{Cycle: 0, Addr: 0x2_0000_0000, Bytes: 64, Kind: trace.Read, Class: trace.MACMeta})
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			ov.Append(i+1, trace.Access{
				Cycle: uint64(i * 3),
				Addr:  0x1_0000_0000 + uint64(i)*64,
				Bytes: 64,
				Kind:  trace.Read,
				Class: trace.MACMeta,
			})
		}
		if i%5 == 0 {
			ov.Append(i+1, trace.Access{
				Cycle: uint64(i * 3),
				Addr:  0x1_4000_0000 + uint64(i)*64,
				Bytes: 128,
				Kind:  trace.Write,
				Class: trace.VNMeta,
			})
		}
	}
	ov.Append(n, trace.Access{Cycle: uint64(n * 3), Addr: 0x1_3fff_ffc0, Bytes: 256, Kind: trace.Write, Class: trace.MACMeta})
	return spine, ov
}

// TestRunOverlayMatchesMaterialized pins the tentpole equivalence: the
// two-stream consumption path produces bit-identical Stats to draining
// the materialized merge as a plain trace.
func TestRunOverlayMatchesMaterialized(t *testing.T) {
	spine, ov := overlayPair(500)
	got := drain(newSim(t, 4), spine, ov)
	want := drain(newSim(t, 4), ov.Materialize(spine), nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("overlay drain %+v != materialized drain %+v", got, want)
	}
}

// TestRunOverlayEmptyDeltas: a scheme with no metadata (Baseline)
// consumes the spine alone, exactly as the nil-overlay raw-trace form
// does.
func TestRunOverlayEmptyDeltas(t *testing.T) {
	spine, _ := overlayPair(100)
	got := drain(newSim(t, 4), spine, &trace.Overlay{})
	want := drain(newSim(t, 4), spine, nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("empty overlay %+v != nil overlay %+v", got, want)
	}
}

// TestArenaSharingIsTransparent: simulators sharing one arena produce
// the same Stats as simulators with private pools, in any interleaving
// (runs only reuse scratch buffers, never scheduling state).
func TestArenaSharingIsTransparent(t *testing.T) {
	spine, ov := overlayPair(300)
	arena := NewArena()
	s1 := newSim(t, 4)
	s1.SetArena(arena)
	s2 := newSim(t, 4)
	s2.SetArena(arena)

	want := drain(newSim(t, 4), spine, ov)
	for i := 0; i < 3; i++ {
		if got := drain(s1, spine, ov); !reflect.DeepEqual(got, want) {
			t.Fatalf("arena run %d (s1) diverged: %+v != %+v", i, got, want)
		}
		if got := drain(s2, spine, ov); !reflect.DeepEqual(got, want) {
			t.Fatalf("arena run %d (s2) diverged: %+v != %+v", i, got, want)
		}
	}
}

// TestArenaGeometryMismatchRebuilds: a state pooled by a 4-channel
// simulator must not corrupt a 2-channel simulator drawing from the
// same arena.
func TestArenaGeometryMismatchRebuilds(t *testing.T) {
	spine, ov := overlayPair(200)
	arena := NewArena()
	s4 := newSim(t, 4)
	s4.SetArena(arena)
	drain(s4, spine, ov) // warm the arena with 4-channel state

	cfg := DDR4Like(2)
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetArena(arena)
	got := drain(s2, spine, ov)

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(ref, spine, ov)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mismatched-geometry arena state leaked: %+v != %+v", got, want)
	}
}

// TestArenaConcurrentUse exercises the arena from parallel goroutines
// (the six schemes of a workload run concurrently by default).
func TestArenaConcurrentUse(t *testing.T) {
	spine, ov := overlayPair(400)
	arena := NewArena()
	want := drain(newSim(t, 4), spine, ov)

	done := make(chan Stats, 6)
	for k := 0; k < 6; k++ {
		s := newSim(t, 4)
		s.SetArena(arena)
		go func(s *Simulator) {
			done <- drain(s, spine, ov)
		}(s)
	}
	for k := 0; k < 6; k++ {
		if got := <-done; !reflect.DeepEqual(got, want) {
			t.Errorf("concurrent arena run diverged: %+v != %+v", got, want)
		}
	}
}
