package authblock

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/scalesim"
	"repro/internal/tiling"
	"repro/internal/trace"
)

// evaluateScan is the reference cost model: it scores one candidate
// block size against an access slice with a direct per-access scan.
// RunSet.Evaluate must stay bit-identical to it (the randomized
// property tests and FuzzAuthblockEvaluate compare against it).
func evaluateScan(runs []trace.Access, block int) Cost {
	c := Cost{Block: block}
	b := uint64(block)
	for _, a := range runs {
		n := uint64(a.Bytes)
		c.MACBytes += tiling.BlocksTouched(a.Addr, n, b) * MACBytes
		if a.Kind == trace.Read {
			c.OverFetch += tiling.ReadOverFetch(a.Addr, n, b)
		} else {
			c.RMWBytes += tiling.WriteRMWBytes(a.Addr, n, b)
		}
	}
	return c
}

// searchRuns is the production search over a raw access slice:
// summarize once with NewRunSet, then score every candidate against
// the summary.
func searchRuns(runs []trace.Access, w Weights) Result {
	rs := NewRunSet(runs)
	return rs.SearchWeighted(w)
}

// legacySearchWeighted is the pre-RunSet search, kept verbatim as the
// reference: distinct lengths collected from the slice, then every
// candidate scored with the per-access evaluateScan. The production
// RunSet.SearchWeighted must return bit-identical Results.
func legacySearchWeighted(runs []trace.Access, w Weights) Result {
	if len(runs) == 0 {
		return Result{Best: Cost{Block: MinBlock}}
	}
	lens := make([]int, 0, 8)
	distinct := map[int]bool{}
	for _, a := range runs {
		if n := int(a.Bytes); !distinct[n] {
			distinct[n] = true
			lens = append(lens, n)
		}
	}
	cands := Candidates(lens)
	res := Result{}
	bestScore := 0.0
	for _, b := range cands {
		c := evaluateScan(runs, b)
		res.Scores = append(res.Scores, c)
		s := w.score(c)
		if res.Best.Block == 0 || s < bestScore ||
			(s == bestScore && c.Block > res.Best.Block) {
			res.Best = c
			bestScore = s
		}
	}
	if res.Best.Block == 0 {
		res.Best = Cost{Block: MinBlock}
	}
	return res
}

// genRuns builds a randomized run set sweeping the axes the search is
// sensitive to: grid alignment (aligned strides, fixed byte offsets,
// arbitrary placement), run length (divisor-rich, power-of-two, prime,
// tiny, huge), duplication (re-streamed runs), and read/write mix.
func genRuns(r *rand.Rand) []trace.Access {
	lengths := []uint32{64, 96, 225, 256, 300, 768, 1024, 1471, 4096, 8192, 12288, 65536, 1}
	n := 1 + r.Intn(48)
	runs := make([]trace.Access, 0, n)
	base := uint64(r.Intn(1 << 28))
	for len(runs) < n {
		l := lengths[r.Intn(len(lengths))]
		if r.Intn(8) == 0 {
			l = uint32(1 + r.Intn(1<<16)) // arbitrary length
		}
		var addr uint64
		switch r.Intn(3) {
		case 0: // aligned arithmetic progression from base
			addr = base + uint64(r.Intn(64))*uint64(l)
		case 1: // fixed misalignment off the stride grid
			addr = base + uint64(r.Intn(64))*uint64(l) + uint64(r.Intn(192))
		default: // arbitrary placement
			addr = base + uint64(r.Intn(1<<20))
		}
		kind := trace.Read
		if r.Intn(3) == 0 {
			kind = trace.Write
		}
		runs = append(runs, trace.Access{Addr: addr, Bytes: l, Kind: kind})
		// Re-stream the same run sometimes, like non-resident weights.
		for dup := r.Intn(4); dup > 0 && len(runs) < n; dup-- {
			runs = append(runs, runs[len(runs)-1])
		}
	}
	return runs
}

// TestSearchWeightedMatchesLegacyScan is the RunSet equivalence
// property: over randomized run sets, the summary-based search must
// return bit-identical Results (chosen block, full cost breakdown,
// and every candidate's score) to the legacy per-candidate scan,
// under both weight scenarios.
func TestSearchWeightedMatchesLegacyScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	weights := []Weights{DefaultWeights(), OnChipMACWeights()}
	for i := 0; i < 300; i++ {
		runs := genRuns(r)
		w := weights[i%len(weights)]
		got := searchRuns(runs, w)
		want := legacySearchWeighted(runs, w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%d runs): RunSet search diverged\n got %+v\nwant %+v",
				i, len(runs), got, want)
		}
	}
}

// TestRunSetEvaluateMatchesScan checks the per-candidate cost identity
// directly, including the O(1) aligned fast path: an all-aligned set
// must produce the same Cost through the prefix-total shortcut as
// through the reference scan.
func TestRunSetEvaluateMatchesScan(t *testing.T) {
	aligned := make([]trace.Access, 24)
	for i := range aligned {
		k := trace.Read
		if i%3 == 0 {
			k = trace.Write
		}
		aligned[i] = trace.Access{Addr: uint64(i) * 768, Bytes: 768, Kind: k}
	}
	rs := NewRunSet(aligned)
	for _, b := range Candidates([]int{768}) {
		got := rs.Evaluate(b)
		want := evaluateScan(aligned, b)
		if got != want {
			t.Errorf("block %d: RunSet cost %+v != scan %+v", b, got, want)
		}
	}
	// 768-divisor blocks must have hit the aligned path.
	if rs.alignG%768 != 0 {
		t.Errorf("alignG = %d, want a multiple of 768", rs.alignG)
	}
}

// TestRunSetDedup checks the multiplicity compression: re-streamed
// identical runs collapse to one entry with a count.
func TestRunSetDedup(t *testing.T) {
	var runs []trace.Access
	for i := 0; i < 10; i++ {
		runs = append(runs, trace.Access{Addr: 4096, Bytes: 512, Kind: trace.Read})
	}
	rs := NewRunSet(runs)
	if len(rs.Runs) != 1 || rs.Runs[0].Count != 10 {
		t.Fatalf("dedup failed: %+v", rs.Runs)
	}
	if rs.source != 10 || rs.TotalBytes() != 5120 {
		t.Errorf("source=%d total=%d, want 10/5120", rs.source, rs.TotalBytes())
	}
}

// TestCollectLayerMatchesPerTensorScan pins the single-walk collection
// against the per-tensor rescan it replaced, on real schedules: for
// every layer of every workload, CollectLayer's per-tensor sets must
// search to the same result as rebased per-tensor slices.
func TestCollectLayerMatchesPerTensorScan(t *testing.T) {
	cfg, err := scalesim.New(32, 32, 480*1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alex", "rest", "mob", "trf"} {
		res, err := cfg.SimulateNetwork(model.ByName(name))
		if err != nil {
			t.Fatal(err)
		}
		for _, lr := range res.Layers {
			got := CollectLayer(lr.Trace)
			for _, tn := range []trace.Tensor{trace.IFMap, trace.Weights, trace.OFMap} {
				// Legacy collection: filter, find min, rebase.
				var runs []trace.Access
				var base uint64
				first := true
				for _, a := range lr.Trace.Accesses {
					if a.Class != trace.Data || a.Tensor != tn {
						continue
					}
					if first || a.Addr < base {
						base = a.Addr
						first = false
					}
				}
				for _, a := range lr.Trace.Accesses {
					if a.Class != trace.Data || a.Tensor != tn {
						continue
					}
					a.Addr -= base
					runs = append(runs, a)
				}
				rs := got.Tensor(tn)
				if len(runs) == 0 {
					if !rs.Empty() {
						t.Errorf("%s/%s %v: collected %d runs from empty tensor",
							name, lr.Layer.Name, tn, len(rs.Runs))
					}
					continue
				}
				if rs.Base != base {
					t.Errorf("%s/%s %v: base %#x want %#x", name, lr.Layer.Name, tn, rs.Base, base)
				}
				w := OnChipMACWeights()
				if gotR, wantR := rs.SearchWeighted(w), legacySearchWeighted(runs, w); !reflect.DeepEqual(gotR, wantR) {
					t.Errorf("%s/%s %v: collected search %+v != legacy %+v",
						name, lr.Layer.Name, tn, gotR.Best, wantR.Best)
				}
			}
		}
	}
}

// TestUnionMatchesConcat pins Union against the legacy inter-layer
// path: rebase both sides onto the common base, concatenate, search.
func TestUnionMatchesConcat(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		a, b := genRuns(r), genRuns(r)
		rsA, rsB := NewRunSet(a), NewRunSet(b)
		u := Union(&rsA, &rsB)
		// Legacy: both sides share the grid anchored at the overall
		// minimum (bases here are absolute addresses, Base=0 for raw
		// sets, so concatenation is directly comparable).
		concat := append(append([]trace.Access{}, a...), b...)
		w := OnChipMACWeights()
		got := u.SearchWeighted(w)
		want := legacySearchWeighted(concat, w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: union search %+v != concat %+v", i, got.Best, want.Best)
		}
	}
}

// TestUnionEmptySides: an empty side must leave the other unchanged.
func TestUnionEmptySides(t *testing.T) {
	runs := []trace.Access{{Addr: 0, Bytes: 768, Kind: trace.Write}}
	rs := NewRunSet(runs)
	var empty RunSet
	if got := Union(&rs, &empty); !reflect.DeepEqual(got, rs) {
		t.Errorf("Union(rs, empty) = %+v, want %+v", got, rs)
	}
	if got := Union(&empty, &rs); !reflect.DeepEqual(got, rs) {
		t.Errorf("Union(empty, rs) = %+v, want %+v", got, rs)
	}
	if got := Union(&empty, &empty); !got.Empty() {
		t.Errorf("Union(empty, empty) not empty: %+v", got)
	}
}

// TestRunSetFingerprint: equal geometry fingerprints equal regardless
// of where the tensor sits; different geometry diverges.
func TestRunSetFingerprint(t *testing.T) {
	mk := func(base uint64, bytes uint32) RunSet {
		var runs []trace.Access
		for i := 0; i < 8; i++ {
			runs = append(runs, trace.Access{Addr: base + uint64(i)*uint64(bytes), Bytes: bytes, Kind: trace.Read})
		}
		b := newBuilder()
		for _, a := range runs {
			b.add(a.Addr, a.Bytes, a.Kind)
		}
		return b.finalize(true)
	}
	a, b := mk(0x1000_0000, 768), mk(0x5000_0000, 768)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("same geometry at different bases must fingerprint equal")
	}
	c := mk(0x1000_0000, 512)
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different run lengths must fingerprint differently")
	}
}

// TestCandidatesDeterministicOrder asserts the documented contract:
// ascending, deduplicated, independent of input order, with the bare
// power-of-two ladder for empty input and non-positive lengths
// skipped.
func TestCandidatesDeterministicOrder(t *testing.T) {
	a := Candidates([]int{768, 96, 768, 300})
	b := Candidates([]int{300, 768, 96})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("order-dependent candidates: %v vs %v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("candidates not strictly ascending: %v", a)
		}
	}
	ladder := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}
	if got := Candidates(nil); !reflect.DeepEqual(got, ladder) {
		t.Errorf("Candidates(nil) = %v, want %v", got, ladder)
	}
	if got := Candidates([]int{0, -64, -1}); !reflect.DeepEqual(got, ladder) {
		t.Errorf("Candidates(non-positive) = %v, want %v", got, ladder)
	}
}

// TestSearchZeroLengthRunsOnly: a non-empty slice of zero-length runs
// must still search the power-of-two ladder (all costs zero, largest
// block wins the tie) exactly like the legacy path.
func TestSearchZeroLengthRunsOnly(t *testing.T) {
	runs := []trace.Access{{Addr: 100, Bytes: 0}, {Addr: 7, Bytes: 0, Kind: trace.Write}}
	got := searchRuns(runs, DefaultWeights())
	want := legacySearchWeighted(runs, DefaultWeights())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-length runs: got %+v want %+v", got, want)
	}
	if got.Best.Block != MaxBlock {
		t.Errorf("all-zero-cost tie should prefer MaxBlock, got %d", got.Best.Block)
	}
}

// TestZeroLengthAccessAnchorsBase: the rebase anchor is the minimum
// address of all tensor accesses — including zero-length ones, exactly
// as the per-tensor trace rescan this collection replaced computed it.
func TestZeroLengthAccessAnchorsBase(t *testing.T) {
	b := newBuilder()
	b.add(100, 0, trace.Read) // zero-length, lowest address
	b.add(164, 512, trace.Write)
	rs := b.finalize(true)
	if rs.Base != 100 {
		t.Errorf("Base = %d, want 100 (zero-length access anchors the grid)", rs.Base)
	}
	if len(rs.Runs) != 1 || rs.Runs[0].Addr != 64 {
		t.Errorf("run offset = %+v, want single run at offset 64", rs.Runs)
	}
	if rs.source != 2 {
		t.Errorf("source = %d, want 2", rs.source)
	}
}
