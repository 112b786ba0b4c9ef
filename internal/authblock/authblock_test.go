package authblock

import (
	"testing"

	"repro/internal/model"
	"repro/internal/scalesim"
	"repro/internal/trace"
)

func alignedRuns(n int, runBytes uint32) []trace.Access {
	runs := make([]trace.Access, n)
	for i := range runs {
		runs[i] = trace.Access{
			Addr:  uint64(i) * uint64(runBytes),
			Bytes: runBytes,
			Kind:  trace.Read,
		}
	}
	return runs
}

func TestEvaluateAlignedRuns(t *testing.T) {
	rs := NewRunSet(alignedRuns(10, 512))
	c := rs.Evaluate(512)
	if c.OverFetch != 0 || c.RMWBytes != 0 {
		t.Errorf("aligned runs: overfetch=%d rmw=%d, want 0/0", c.OverFetch, c.RMWBytes)
	}
	if c.MACBytes != 10*MACBytes {
		t.Errorf("MAC bytes = %d, want %d", c.MACBytes, 10*MACBytes)
	}
}

func TestEvaluateFinerBlocksMoreMAC(t *testing.T) {
	rs := NewRunSet(alignedRuns(10, 512))
	c64 := rs.Evaluate(64)
	c512 := rs.Evaluate(512)
	if c64.MACBytes <= c512.MACBytes {
		t.Errorf("64B MAC bytes %d <= 512B %d", c64.MACBytes, c512.MACBytes)
	}
}

func TestEvaluateMisalignedOverFetch(t *testing.T) {
	// 300-byte runs: 512B blocks over-fetch, 64B less so.
	rs := NewRunSet([]trace.Access{
		{Addr: 0, Bytes: 300, Kind: trace.Read},
		{Addr: 300, Bytes: 300, Kind: trace.Read},
	})
	c512 := rs.Evaluate(512)
	if c512.OverFetch == 0 {
		t.Error("no over-fetch recorded for misaligned runs")
	}
	c64 := rs.Evaluate(64)
	if c64.OverFetch >= c512.OverFetch {
		t.Errorf("finer blocks did not reduce over-fetch: %d vs %d",
			c64.OverFetch, c512.OverFetch)
	}
}

func TestEvaluateWriteRMW(t *testing.T) {
	rs := NewRunSet([]trace.Access{{Addr: 0, Bytes: 100, Kind: trace.Write}})
	c := rs.Evaluate(512)
	if c.RMWBytes != 412 {
		t.Errorf("RMW = %d, want 412", c.RMWBytes)
	}
	if c.OverFetch != 0 {
		t.Errorf("write counted as read over-fetch: %d", c.OverFetch)
	}
}

func TestCandidatesIncludePowersAndDivisors(t *testing.T) {
	cands := Candidates([]int{768})
	want := map[int]bool{64: true, 128: true, 256: true, 512: true,
		1024: true, 2048: true, 4096: true, 8192: true,
		96: true, 192: true, 384: true, 768: true}
	got := map[int]bool{}
	for _, c := range cands {
		got[c] = true
		if c < MinBlock || c > MaxBlock {
			t.Errorf("candidate %d out of range", c)
		}
	}
	for w := range want {
		if !got[w] {
			t.Errorf("candidate %d missing", w)
		}
	}
}

func TestSearchPicksAlignedDivisor(t *testing.T) {
	// Runs of 768 bytes at 768-byte strides: block 768 gives zero
	// over-fetch and minimum MAC count; the search must find it (or a
	// tie at equal total cost with a larger aligned block, which
	// cannot happen here since 768 is the run length).
	runs := make([]trace.Access, 64)
	for i := range runs {
		runs[i] = trace.Access{Addr: uint64(i) * 768, Bytes: 768, Kind: trace.Read}
	}
	res := searchRuns(runs, DefaultWeights())
	if res.Best.Block != 768 {
		t.Errorf("optBlk = %d, want 768", res.Best.Block)
	}
	if res.Best.OverFetch != 0 || res.Best.RMWBytes != 0 {
		t.Errorf("optBlk has overfetch=%d rmw=%d", res.Best.OverFetch, res.Best.RMWBytes)
	}
}

func TestSearchEmptyRunsFallsBack(t *testing.T) {
	res := searchRuns(nil, DefaultWeights())
	if res.Best.Block != MinBlock {
		t.Errorf("empty search block = %d, want %d", res.Best.Block, MinBlock)
	}
}

func TestSearchBeatsFixedGranularities(t *testing.T) {
	// On real layer schedules, the searched optBlk must never cost
	// more than the fixed 64B and 512B granularities the paper
	// compares against.
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
			rs := NewRunSet(lr.Trace.Accesses)
			r := rs.Search()
			f64 := rs.Evaluate(64)
			f512 := rs.Evaluate(512)
			if r.Best.Total() > f64.Total() {
				t.Errorf("%s/%s: optBlk %d cost %d > fixed-64 cost %d",
					name, lr.Layer.Name, r.Best.Block, r.Best.Total(), f64.Total())
			}
			if r.Best.Total() > f512.Total() {
				t.Errorf("%s/%s: optBlk %d cost %d > fixed-512 cost %d",
					name, lr.Layer.Name, r.Best.Block, r.Best.Total(), f512.Total())
			}
		}
	}
}

func TestSearchLayerIgnoresMetadata(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Access{Addr: 0, Bytes: 768, Kind: trace.Read, Class: trace.Data})
	tr.Append(trace.Access{Addr: 1 << 30, Bytes: 8, Kind: trace.Read, Class: trace.MACMeta})
	runs := CollectLayer(tr)
	res := runs.IFMap.Search()
	// The 8-byte metadata access must not drag the optBlk down.
	if res.Best.Block != 768 {
		t.Errorf("optBlk = %d, want 768 (metadata leaked into search)", res.Best.Block)
	}
}

func TestScoresCoverAllCandidates(t *testing.T) {
	runs := alignedRuns(4, 256)
	res := searchRuns(runs, DefaultWeights())
	if len(res.Scores) == 0 {
		t.Fatal("no candidate scores recorded")
	}
	// Scores must cover exactly the deterministic candidate list, in
	// its documented ascending order.
	cands := Candidates([]int{256})
	if len(res.Scores) != len(cands) {
		t.Fatalf("scored %d candidates, want %d", len(res.Scores), len(cands))
	}
	for i, s := range res.Scores {
		if s.Block != cands[i] {
			t.Errorf("score %d is for block %d, want %d (ascending candidate order)",
				i, s.Block, cands[i])
		}
	}
	found := false
	for _, s := range res.Scores {
		if s.Block == res.Best.Block && s.Total() == res.Best.Total() {
			found = true
		}
		if s.Total() < res.Best.Total() {
			t.Errorf("candidate %d total %d beats chosen %d",
				s.Block, s.Total(), res.Best.Total())
		}
	}
	if !found {
		t.Error("best score not among candidate scores")
	}
}
