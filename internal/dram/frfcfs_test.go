package dram

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// conflictTrace builds a deterministic, conflict-heavy trace that
// exercises every scheduler decision the FR-FCFS window can make:
// row hits reordered past older misses, bank conflicts honoring tRAS,
// empty-bank activations, issue-time stalls (time jumps), window-full
// scans, swap-removal of non-head picks, refresh interruptions,
// multi-burst accesses and non-burst-aligned sizes. A tiny LCG mixes
// the pattern so neighbouring requests disagree about banks and rows
// without the trace depending on math/rand's generator version.
func conflictTrace(n int) *trace.Trace {
	tr := &trace.Trace{}
	tr.Reserve(n)
	state := uint64(0x9e3779b97f4a7c15)
	lcg := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for i := 0; i < n; i++ {
		r := lcg()
		var addr uint64
		switch i % 5 {
		case 0: // sequential run: row hits
			addr = 0x100_0000 + uint64(i)*64
		case 1: // two-row ping-pong on one bank: guaranteed conflicts
			addr = 0x200_0000 + (r%2)*2048*16*4
		case 2: // wide bank spread
			addr = uint64(r%64) * 2048 * 4
		case 3: // metadata-like region far away
			addr = 0x1_0000_0000 + uint64(r%512)*64
		default: // random-ish within a few rows
			addr = 0x300_0000 + (r % (2048 * 8))
		}
		size := uint32(64)
		switch i % 7 {
		case 1:
			size = 256
		case 3:
			size = 520 // non-burst-aligned
		case 5:
			size = 1024
		}
		cycle := uint64(i) * 2
		if i%11 == 0 {
			cycle += 5000 // sparse late issues force time jumps
		}
		tr.Append(trace.Access{
			Cycle: cycle,
			Addr:  addr,
			Bytes: size,
			Kind:  trace.Kind(i % 2),
			Layer: uint16(i % 3),
		})
	}
	return tr
}

// goldenStats are the exact Stats the pre-PR-4 O(window)
// mapAddr-per-candidate scheduler produced on conflictTrace. The
// bank-bucketed drain must reproduce them bit for bit: any change to
// the pick order moves RowHits/RowMisses and every per-channel cycle
// count. The slowbus2 entry came later, from the per-burst drain the
// run step replaced (legacyDrainChannel in oracle_test.go), recorded
// before that drain changed. Regenerate only if the scheduling
// *semantics* deliberately change (and say so in DESIGN.md).
var goldenStats = map[string]Stats{
	"ddr4x4":   {Cycles: 70702, Reads: 9413, Writes: 9436, RowHits: 13409, RowMisses: 4966, RowEmpty: 474, Refreshes: 27, BytesMoved: 1206336, ChanCycles: []uint64{25486, 19852, 19760, 19748}, MaxChanBusy: 25486},
	"odd3x12":  {Cycles: 80974, Reads: 9413, Writes: 9436, RowHits: 14261, RowMisses: 4196, RowEmpty: 392, Refreshes: 30, BytesMoved: 1206336, ChanCycles: []uint64{27624, 29172, 29100}, MaxChanBusy: 29172},
	"narrow1":  {Cycles: 263558, Reads: 9413, Writes: 9436, RowHits: 15868, RowMisses: 2472, RowEmpty: 509, Refreshes: 33, BytesMoved: 1206336, ChanCycles: []uint64{86946}, MaxChanBusy: 86946},
	"slowbus2": {Cycles: 419960, Reads: 9413, Writes: 9436, RowHits: 15468, RowMisses: 2247, RowEmpty: 1134, Refreshes: 100, BytesMoved: 1206336, ChanCycles: []uint64{418510, 370450}, MaxChanBusy: 418510},
}

func goldenConfigs() map[string]Config {
	pow2 := DDR4Like(4)
	// Non-power-of-two geometry drives the division-based decode
	// fallback; a small window stresses the sliding-window bookkeeping.
	odd := Config{
		Channels:     3,
		BanksPerChan: 12,
		RowBytes:     1536,
		BurstBytes:   64,
		TBurst:       4,
		TCL:          14,
		TRCD:         14,
		TRP:          14,
		TRAS:         32,
		TRefi:        7800,
		TRfc:         350,
		WindowSize:   8,
	}
	single := DDR4Like(1)
	single.WindowSize = 4
	// TBurst above TCL, the regime of the edge preset and most
	// explore geometries: a row hit's bank is ready again before the
	// bus is, so same-row streams never stall on their own bank.
	slowBus := DDR4Like(2)
	slowBus.TBurst = 40
	slowBus.WindowSize = 16
	return map[string]Config{"ddr4x4": pow2, "odd3x12": odd, "narrow1": single, "slowbus2": slowBus}
}

// TestFRFCFSGoldenPickOrder pins the scheduler's exact pick order via
// full-stats golden values on the conflict-heavy trace, for a
// power-of-two geometry (shift/mask decode), a non-power-of-two one
// (division decode), a single-channel narrow window, and a bus slower
// than the column latency (TBurst > TCL).
func TestFRFCFSGoldenPickOrder(t *testing.T) {
	tr := conflictTrace(4000)
	for name, cfg := range goldenConfigs() {
		want, ok := goldenStats[name]
		if !ok {
			t.Errorf("no golden stats recorded for %q", name)
			continue
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(s, tr, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestFRFCFSGoldenDump regenerates the golden literals; run with
//
//	go test -run TestFRFCFSGoldenDump -v ./internal/dram
//
// and paste the output into goldenStats above when the scheduling
// semantics deliberately change.
func TestFRFCFSGoldenDump(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("dump runs only under -v")
	}
	tr := conflictTrace(4000)
	for name, cfg := range goldenConfigs() {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := drain(s, tr, nil)
		t.Logf("%q: {Cycles: %d, Reads: %d, Writes: %d, RowHits: %d, RowMisses: %d, RowEmpty: %d, Refreshes: %d, BytesMoved: %d, ChanCycles: %#v, MaxChanBusy: %d},",
			name, st.Cycles, st.Reads, st.Writes, st.RowHits, st.RowMisses, st.RowEmpty, st.Refreshes, st.BytesMoved, st.ChanCycles, st.MaxChanBusy)
	}
}
