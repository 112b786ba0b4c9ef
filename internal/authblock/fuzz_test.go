package authblock

import (
	"encoding/binary"
	"testing"

	"repro/internal/trace"
)

// decodeFuzzRuns turns raw fuzz bytes into a bounded run slice: 13
// bytes per run (8 address, 4 length, 1 direction). Addresses are
// masked to 44 bits — a 16 TB space, far beyond any schedule, while
// keeping addr+bytes clear of uint64 wraparound so the cost model's
// arithmetic stays in its documented domain. Lengths are adversarial:
// the full uint32 range, including zero.
func decodeFuzzRuns(data []byte) []trace.Access {
	const stride = 13
	n := len(data) / stride
	if n > 64 {
		n = 64
	}
	runs := make([]trace.Access, 0, n)
	for i := 0; i < n; i++ {
		rec := data[i*stride : (i+1)*stride]
		kind := trace.Read
		if rec[12]&1 == 1 {
			kind = trace.Write
		}
		runs = append(runs, trace.Access{
			Addr:  binary.LittleEndian.Uint64(rec[0:8]) & ((1 << 44) - 1),
			Bytes: binary.LittleEndian.Uint32(rec[8:12]),
			Kind:  kind,
		})
	}
	return runs
}

// FuzzAuthblockEvaluate checks the cost model's invariants on
// adversarial run sets:
//
//   - RunSet-summary evaluation is bit-identical to the reference
//     per-access scan at every candidate the search would visit;
//   - finer blocks never decrease MACBytes (each coarse block splits
//     into whole finer blocks, so the touched count is monotone);
//   - Total() never overflows: it is a sum of three components, each
//     bounded by (runs × (maxlen + 2·MaxBlock)) ≪ 2⁶⁴, so the sum
//     must dominate every addend;
//   - the full weighted search agrees with the legacy scan.
func FuzzAuthblockEvaluate(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 0, 64)
	for _, r := range []trace.Access{
		{Addr: 0, Bytes: 768},
		{Addr: 768, Bytes: 768, Kind: trace.Write},
		{Addr: 300, Bytes: 0},
		{Addr: 1<<44 - 1, Bytes: 1<<32 - 1},
	} {
		var rec [13]byte
		binary.LittleEndian.PutUint64(rec[0:8], r.Addr)
		binary.LittleEndian.PutUint32(rec[8:12], r.Bytes)
		rec[12] = byte(r.Kind)
		seed = append(seed, rec[:]...)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		runs := decodeFuzzRuns(data)
		if len(runs) == 0 {
			return
		}
		rs := NewRunSet(runs)
		lens := make([]int, 0, len(runs))
		for _, a := range runs {
			lens = append(lens, int(a.Bytes))
		}
		for _, b := range Candidates(lens) {
			ref := evaluateScan(runs, b)
			got := rs.Evaluate(b)
			if got != ref {
				t.Fatalf("block %d: RunSet cost %+v != reference scan %+v", b, got, ref)
			}
			tot := ref.Total()
			if tot < ref.MACBytes || tot < ref.OverFetch || tot < ref.RMWBytes {
				t.Fatalf("block %d: Total %d overflowed (mac=%d of=%d rmw=%d)",
					b, tot, ref.MACBytes, ref.OverFetch, ref.RMWBytes)
			}
			// Monotonicity holds along divisibility: halving the block
			// splits each touched block into whole finer blocks, so the
			// finer granularity can only touch at least as many. (It
			// does NOT hold between arbitrary candidate sizes — a
			// misaligned run can straddle a boundary of a larger,
			// non-multiple block it fit inside at the smaller size.)
			if b%2 == 0 && b/2 >= MinBlock {
				if finer := evaluateScan(runs, b/2); finer.MACBytes < ref.MACBytes {
					t.Fatalf("finer block %d has MACBytes %d < block %d's %d",
						b/2, finer.MACBytes, b, ref.MACBytes)
				}
			}
		}
		got := searchRuns(runs, DefaultWeights())
		want := legacySearchWeighted(runs, DefaultWeights())
		if got.Best != want.Best {
			t.Fatalf("search diverged: %+v vs %+v", got.Best, want.Best)
		}
	})
}
