package memprot

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/scalesim"
)

// allocBytes measures heap bytes allocated while fn runs.
func allocBytes(t *testing.T, fn func()) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func benchNet(b *testing.B, name string, server bool) *scalesim.NetworkResult {
	b.Helper()
	rows, cols, sram := 32, 32, 480*1024
	if server {
		rows, cols, sram = 256, 256, 24*1024*1024
	}
	cfg, err := scalesim.New(rows, cols, sram)
	if err != nil {
		b.Fatal(err)
	}
	res, err := cfg.SimulateNetwork(model.ByName(name))
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkProtectAll measures the protection phase of a six-scheme
// evaluation in three configurations:
//
//   - independent: six single-scheme walks, each materializing its
//     flat augmented trace — the seed pipeline's shape.
//   - shared-spine: one ProtectAllArenaCtx call without an arena; each
//     scheme in turn walks the shared data spine and emits only its
//     overlay deltas, nothing is materialized.
//   - shared-spine-arena: the same call drawing overlay storage from a
//     warmed arena, where evaluation N+1 refills the buffers
//     evaluation N grew. This is the configuration the >= 4x
//     per-scheme allocated-bytes acceptance target refers to
//     (recorded in BENCH_PIPELINE.json): with the spine shared and the
//     overlays recycled, steady-state allocation is the SeDA block
//     search plus bookkeeping, not the trace data. It keeps every
//     layer of all six schemes live until the release; the seda
//     pipeline instead streams memprot.WalkCtx into one overlay it
//     resets per layer, so only one layer's overlay is ever live.
func BenchmarkProtectAll(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		server bool
	}{
		{"server", true},
		{"edge", false},
	} {
		net := benchNet(b, "rest", cfg.server)
		schemes := AllSchemes()
		b.Run(cfg.name+"/independent", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range schemes {
					if _, err := protectFlat(s, net, DefaultOptions()); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(cfg.name+"/shared-spine", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := protectAll(schemes, net, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(cfg.name+"/shared-spine-arena", func(b *testing.B) {
			arena := NewArena()
			warm, err := ProtectAllArenaCtx(context.Background(), schemes, net, DefaultOptions(), arena)
			if err != nil {
				b.Fatal(err)
			}
			arena.Release(warm)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, err := ProtectAllArenaCtx(context.Background(), schemes, net, DefaultOptions(), arena)
				if err != nil {
					b.Fatal(err)
				}
				arena.Release(rs)
			}
		})
	}
}

// TestProtectAllAllocatesFarLessThanIndependentRuns is the
// non-benchmark guard on the steady-state property, with a
// deliberately generous factor so measurement noise cannot flake it:
// a warmed shared-spine+arena evaluation must allocate at least 3x
// less than six independent flat walks (the benchmark records the
// real number, which is far larger). The factor was 4x before overlay
// coalescing; coalescing shrinks the independent baseline too (its
// materialized traces carry several-fold fewer overlay entries), so
// the multiplier between the two paths legitimately narrowed.
func TestProtectAllAllocatesFarLessThanIndependentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	net := serverNet(t, "ncf")
	schemes := AllSchemes()
	arena := NewArena()
	warm, err := ProtectAllArenaCtx(context.Background(), schemes, net, DefaultOptions(), arena)
	if err != nil {
		t.Fatal(err)
	}
	arena.Release(warm)
	shared := allocBytes(t, func() {
		rs, err := ProtectAllArenaCtx(context.Background(), schemes, net, DefaultOptions(), arena)
		if err != nil {
			t.Fatal(err)
		}
		arena.Release(rs)
	})
	independent := allocBytes(t, func() {
		for _, s := range schemes {
			if _, err := protectFlat(s, net, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		}
	})
	if shared*3 > independent {
		t.Errorf("steady-state shared-spine evaluation allocated %d B vs %d B independent (< 3x reduction)",
			shared, independent)
	}
}
