package dram

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// mixedTrace builds a trace exercising every scheduler path: strided
// reads/writes of varying sizes, late issue times, and row conflicts.
func mixedTrace(n int) *trace.Trace {
	tr := &trace.Trace{}
	tr.Reserve(n)
	for i := 0; i < n; i++ {
		size := uint32(64)
		switch i % 3 {
		case 1:
			size = 256
		case 2:
			size = 520 // non-burst-aligned size
		}
		addr := uint64(i) * 192
		if i%7 == 0 {
			addr = uint64(i) * 2048 * 16 * 3 // bank/row jumps
		}
		tr.Append(trace.Access{
			Cycle: uint64(i/4) * 3,
			Addr:  addr,
			Bytes: size,
			Kind:  trace.Kind(i % 2),
			Layer: uint16(i % 5),
		})
	}
	return tr
}

// TestRunStateReuse checks that the pooled scratch state (recycled
// queue buffers, bank arrays) does not leak state between runs: a
// reused simulator must report exactly what a fresh one does.
func TestRunStateReuse(t *testing.T) {
	warm := newSim(t, 4)
	tr1 := mixedTrace(2000)
	tr2 := seqTrace(500, 64, 64, trace.Write)
	drain(warm, tr1, nil) // dirty the pooled state with a larger trace
	got := drain(warm, tr2, nil)
	want := drain(newSim(t, 4), tr2, nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reused state %+v != fresh %+v", got, want)
	}
}

// TestCancelledDrainReturnsCtxErr: a drain under an already-cancelled
// context abandons the run with ctx.Err(), and the simulator's pooled
// state stays usable for the next run.
func TestCancelledDrainReturnsCtxErr(t *testing.T) {
	s := newSim(t, 4)
	tr := mixedTrace(800)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunOverlayCtx(ctx, tr, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled drain returned %v, want context.Canceled", err)
	}
	if got, want := drain(s, tr, nil), drain(newSim(t, 4), tr, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("run after a cancelled drain %+v != fresh %+v", got, want)
	}
}

// TestNonPowerOfTwoChannels exercises the counted explode's remainder
// distribution for channel counts that do not divide burst indices
// evenly: burst conservation must hold exactly.
func TestNonPowerOfTwoChannels(t *testing.T) {
	s := newSim(t, 3)
	tr := &trace.Trace{}
	for i := 0; i < 100; i++ {
		tr.Append(trace.Access{Addr: uint64(i) * 448, Bytes: 448, Kind: trace.Read})
	}
	st := drain(s, tr, nil)
	if st.Reads != 700 { // 100 accesses x 7 bursts
		t.Errorf("reads = %d, want 700", st.Reads)
	}
	if st.BytesMoved != 700*64 {
		t.Errorf("bytes = %d, want %d", st.BytesMoved, 700*64)
	}
	var busy int
	for _, c := range st.ChanCycles {
		if c > 0 {
			busy++
		}
	}
	if busy != 3 {
		t.Errorf("only %d of 3 channels saw traffic", busy)
	}
}

// TestRunTraceAllocGuard pins the steady-state allocation budget of
// the hot path: a warmed simulator must stay at or below 5 allocs per
// drain (the ChanCycles result slice plus the replayable-iterator
// closures). A regression here — e.g. a per-pick
// allocation sneaking into the bank-bucketed drain — fails CI instead
// of silently rotting until someone reruns the benchmarks.
func TestRunTraceAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	tr := mixedTrace(2000)
	s, err := New(DDR4Like(4))
	if err != nil {
		t.Fatal(err)
	}
	drain(s, tr, nil) // grow the pooled queues once
	allocs := testing.AllocsPerRun(10, func() { drain(s, tr, nil) })
	if allocs > 5 {
		t.Errorf("drain allocates %.1f times per run, want <= 5", allocs)
	}
}

// BenchmarkRunTrace measures the zero-copy hot path and reports host
// nanoseconds per simulated burst next to ns/op. The seed adapter
// (accessView copy + growing queues) ran the stream workload at 79
// allocs/op and ~3.4 MB/op; the counted pre-size explode with pooled
// buffers must stay well under half of that (see BENCH_PIPELINE.json).
//
//   - stream: 4096 staggered 512 B accesses over four channels, 8
//     bursts each (the workload the benchmark always ran).
//   - stalled: sixteen contiguous 64 KiB reads on one channel issued
//     at once, at TCL > TBurst: every row is a 32-burst run of hits
//     on one bank that waits out TCL per burst, the regime in which
//     the per-burst drain fell back to the rule-2 pick on every burst.
func BenchmarkRunTrace(b *testing.B) {
	stream := &trace.Trace{}
	stream.Reserve(4096)
	for i := 0; i < 4096; i++ {
		stream.Append(trace.Access{
			Cycle: uint64(i) * 4,
			Addr:  uint64(i) * 512,
			Bytes: 512,
			Kind:  trace.Kind(i % 2),
		})
	}
	stalled := seqTrace(16, 64<<10, 64<<10, trace.Read)
	for _, bc := range []struct {
		name     string
		channels int
		tr       *trace.Trace
	}{
		{"stream", 4, stream},
		{"stalled", 1, stalled},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := New(DDR4Like(bc.channels))
			if err != nil {
				b.Fatal(err)
			}
			bursts := drain(s, bc.tr, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drain(s, bc.tr, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*(bursts.Reads+bursts.Writes)), "ns/burst")
		})
	}
}
