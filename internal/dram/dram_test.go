package dram

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/trace"
)

func newSim(t *testing.T, channels int) *Simulator {
	t.Helper()
	s, err := New(DDR4Like(channels))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drain runs spine (merged with ov, which may be nil) through s under
// a context that cannot be cancelled, so the drain cannot fail.
func drain(s *Simulator, spine *trace.Trace, ov *trace.Overlay) Stats {
	st, err := s.RunOverlayCtx(context.Background(), spine, ov)
	if err != nil {
		panic(err)
	}
	return st
}

func seqTrace(n int, stride uint64, bytes uint32, kind trace.Kind) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Append(trace.Access{Addr: uint64(i) * stride, Bytes: bytes, Kind: kind})
	}
	return tr
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Channels: 0, BanksPerChan: 8, RowBytes: 2048, BurstBytes: 64, TBurst: 4, WindowSize: 8},
		{Channels: 4, BanksPerChan: 8, RowBytes: 2048, BurstBytes: 64, TBurst: 0, WindowSize: 8},
		{Channels: 4, BanksPerChan: 8, RowBytes: 2048, BurstBytes: 64, TBurst: 4, WindowSize: 0},
	}
	// A refresh at least as long as its interval never lets the drain
	// finish: each one advances the clock TRfc but the next refresh
	// only TRefi.
	for _, trfc := range []uint64{150, 100} {
		cfg := DDR4Like(1)
		cfg.TRefi, cfg.TRfc = 100, trfc
		bad = append(bad, cfg)
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("accepted invalid config %+v", cfg)
		}
	}
	if _, err := New(DDR4Like(4)); err != nil {
		t.Errorf("rejected DDR4Like: %v", err)
	}
}

// TestRefreshJustShorterThanIntervalDrains: Validate refuses TRfc >=
// TRefi, with which the drain would refresh forever; one cycle less
// leaves one cycle per interval for bursts, and a trace still drains.
func TestRefreshJustShorterThanIntervalDrains(t *testing.T) {
	cfg := DDR4Like(1)
	cfg.TRefi, cfg.TRfc = 100, 99
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("rejected TRfc=99 with TRefi=100: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := s.RunOverlayCtx(ctx, seqTrace(1, 0, 64<<10, trace.Read), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != 1024 || st.Refreshes == 0 {
		t.Errorf("reads/refreshes = %d/%d, want 1024/>0", st.Reads, st.Refreshes)
	}
}

func TestEmptyTrace(t *testing.T) {
	s := newSim(t, 4)
	st := drain(s, &trace.Trace{}, nil)
	if st.Cycles != 0 || st.BytesMoved != 0 {
		t.Errorf("empty trace: %+v", st)
	}
}

func TestBytesConservation(t *testing.T) {
	s := newSim(t, 4)
	tr := seqTrace(100, 64, 64, trace.Read)
	st := drain(s, tr, nil)
	if st.BytesMoved != 100*64 {
		t.Errorf("bytes moved = %d, want %d", st.BytesMoved, 100*64)
	}
	if st.Reads != 100 || st.Writes != 0 {
		t.Errorf("reads/writes = %d/%d, want 100/0", st.Reads, st.Writes)
	}
}

func TestLargeAccessSplitsIntoBursts(t *testing.T) {
	s := newSim(t, 1)
	tr := &trace.Trace{}
	tr.Append(trace.Access{Addr: 0, Bytes: 512, Kind: trace.Write})
	st := drain(s, tr, nil)
	if st.Writes != 8 {
		t.Errorf("512B write -> %d bursts, want 8", st.Writes)
	}
	if st.BytesMoved != 512 {
		t.Errorf("bytes moved = %d, want 512", st.BytesMoved)
	}
}

func TestCyclesMonotoneInTraceLength(t *testing.T) {
	s := newSim(t, 4)
	var prev uint64
	for _, n := range []int{10, 100, 1000, 5000} {
		st := drain(s, seqTrace(n, 64, 64, trace.Read), nil)
		if st.Cycles < prev {
			t.Errorf("cycles decreased: n=%d cycles=%d prev=%d", n, st.Cycles, prev)
		}
		prev = st.Cycles
	}
}

func TestMoreChannelsFaster(t *testing.T) {
	tr := seqTrace(4000, 64, 64, trace.Read)
	s1 := newSim(t, 1)
	s4 := newSim(t, 4)
	c1 := drain(s1, tr, nil).Cycles
	c4 := drain(s4, tr, nil).Cycles
	if c4 >= c1 {
		t.Errorf("4-channel (%d cycles) not faster than 1-channel (%d)", c4, c1)
	}
	// Interleaved sequential traffic should scale close to linearly.
	if float64(c1)/float64(c4) < 2.0 {
		t.Errorf("channel scaling only %.2fx, want >= 2x", float64(c1)/float64(c4))
	}
}

func TestSequentialBeatsRandom(t *testing.T) {
	// Row-buffer locality: a sequential walk should finish faster and
	// with a higher row-hit rate than a bank-thrashing stride walk.
	seq := seqTrace(2000, 64, 64, trace.Read)
	s := newSim(t, 1)
	stSeq := drain(s, seq, nil)

	thrash := &trace.Trace{}
	rowStride := uint64(2048 * 16 * 7) // jump rows and banks every access
	for i := 0; i < 2000; i++ {
		thrash.Append(trace.Access{Addr: uint64(i) * rowStride, Bytes: 64, Kind: trace.Read})
	}
	s2 := newSim(t, 1)
	stThrash := drain(s2, thrash, nil)

	if rowHitRate(stSeq) <= rowHitRate(stThrash) {
		t.Errorf("sequential row-hit rate %.3f <= thrash %.3f",
			rowHitRate(stSeq), rowHitRate(stThrash))
	}
	if stSeq.Cycles >= stThrash.Cycles {
		t.Errorf("sequential (%d cycles) not faster than thrash (%d)",
			stSeq.Cycles, stThrash.Cycles)
	}
}

// rowHitRate returns rowHits / (rowHits+rowMisses+rowEmpty).
func rowHitRate(s Stats) float64 {
	tot := s.RowHits + s.RowMisses + s.RowEmpty
	if tot == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(tot)
}

func TestRowOutcomeAccounting(t *testing.T) {
	s := newSim(t, 1)
	st := drain(s, seqTrace(1000, 64, 64, trace.Read), nil)
	if st.RowHits+st.RowMisses+st.RowEmpty != st.Reads {
		t.Errorf("row outcomes %d+%d+%d != reads %d",
			st.RowHits, st.RowMisses, st.RowEmpty, st.Reads)
	}
	// A 64B-stride walk within 2048B rows should be mostly row hits.
	if rowHitRate(st) < 0.9 {
		t.Errorf("sequential row hit rate = %.3f, want > 0.9", rowHitRate(st))
	}
}

func TestRefreshHappens(t *testing.T) {
	cfg := DDR4Like(1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Enough traffic to run past several tREFI intervals.
	st := drain(s, seqTrace(50000, 64, 64, trace.Read), nil)
	if st.Refreshes == 0 {
		t.Error("no refreshes over a long trace")
	}
	if st.Cycles < cfg.TRefi {
		t.Errorf("cycles %d below one refresh interval %d", st.Cycles, cfg.TRefi)
	}
}

func TestRefreshDisabled(t *testing.T) {
	cfg := DDR4Like(1)
	cfg.TRefi = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := drain(s, seqTrace(50000, 64, 64, trace.Read), nil)
	if st.Refreshes != 0 {
		t.Errorf("refreshes = %d with refresh disabled", st.Refreshes)
	}
}

func TestIssueCycleRespected(t *testing.T) {
	s := newSim(t, 1)
	tr := &trace.Trace{}
	const lateIssue = 1_000_000
	tr.Append(trace.Access{Cycle: lateIssue, Addr: 0, Bytes: 64, Kind: trace.Read})
	st := drain(s, tr, nil)
	if st.Cycles < lateIssue {
		t.Errorf("trace finished at %d, before its only request's issue time %d",
			st.Cycles, lateIssue)
	}
}

func TestChannelMappingCoversAllChannels(t *testing.T) {
	s := newSim(t, 4)
	st := drain(s, seqTrace(400, 64, 64, trace.Read), nil)
	for ci, busy := range st.ChanCycles {
		if busy == 0 {
			t.Errorf("channel %d never used by interleaved walk", ci)
		}
	}
}

func TestMixedReadWriteCounts(t *testing.T) {
	s := newSim(t, 2)
	tr := &trace.Trace{}
	for i := 0; i < 64; i++ {
		k := trace.Read
		if i%2 == 1 {
			k = trace.Write
		}
		tr.Append(trace.Access{Addr: uint64(i) * 64, Bytes: 64, Kind: k})
	}
	st := drain(s, tr, nil)
	if st.Reads != 32 || st.Writes != 32 {
		t.Errorf("reads/writes = %d/%d, want 32/32", st.Reads, st.Writes)
	}
}

// TestStatsConservation holds random geometries and traces (refresh
// always shorter than its interval, as Validate demands) to the
// accounting identities every drain must keep: each burst has one row
// outcome and moves one burst of bytes, the busiest channel is the
// maximum of the per-channel counts and ends no later than the drain,
// and a channel is busy exactly for its bursts and its refreshes.
func TestStatsConservation(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 150
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		data := make([]byte, 11+4*r.Intn(300))
		r.Read(data)
		cfg, tr := decodeCase(data)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := drain(s, tr, nil)
		bursts := st.Reads + st.Writes
		var sum, maxBusy uint64
		for _, c := range st.ChanCycles {
			sum += c
			maxBusy = max(maxBusy, c)
		}
		for _, e := range []struct {
			name string
			ok   bool
		}{
			{"RowHits+RowMisses+RowEmpty == Reads+Writes", st.RowHits+st.RowMisses+st.RowEmpty == bursts},
			{"BytesMoved == (Reads+Writes)*BurstBytes", st.BytesMoved == bursts*uint64(cfg.BurstBytes)},
			{"MaxChanBusy == max(ChanCycles)", st.MaxChanBusy == maxBusy},
			{"Cycles >= MaxChanBusy", st.Cycles >= st.MaxChanBusy},
			{"sum(ChanCycles) == (Reads+Writes)*TBurst + Refreshes*TRfc", sum == bursts*cfg.TBurst+st.Refreshes*cfg.TRfc},
		} {
			if !e.ok {
				t.Errorf("case %d (config %+v): %s fails: %+v", i, cfg, e.name, st)
			}
		}
	}
}
