package seda

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/rescache"
)

// walkCase is a random small platform for testing/quick: the edge NPU
// with its array rows, SRAM, channel count and bandwidth perturbed,
// running one of the small workloads.
type walkCase struct {
	npu NPUConfig
	net string
}

func (walkCase) Generate(r *rand.Rand, _ int) reflect.Value {
	npu := EdgeNPU()
	npu.ArrayRows = []int{8, 16, 24, 32, 48}[r.Intn(5)]
	npu.SRAMBytes = (64 + r.Intn(961)) * 1024
	npu.Channels = 1 + r.Intn(8)
	npu.BandwidthB = float64(2+r.Intn(19)) * 1e9
	npu.Name = fmt.Sprintf("r%d-s%d-c%d-bw%g", npu.ArrayRows, npu.SRAMBytes, npu.Channels, npu.BandwidthB)
	nets := []string{"let", "ncf", "sent", "dlrm"}
	return reflect.ValueOf(walkCase{npu: npu, net: nets[r.Intn(len(nets))]})
}

// TestWalkSchemeMatchesSuiteRows is the single-scheme walk's property
// test: on random small platforms and workloads, a draining walk of
// each scheme alone must sum to that scheme's RunNetworkOptsCtx row —
// ExecCycles = Σ max(compute, DRAM), ComputeCycles = Σ compute,
// DataBytes and MetaBytes the sums of the layers' overheads. So a
// scheme's row does not depend on which other schemes ran beside it,
// and every row's traffic is its layers' data plus metadata.
func TestWalkSchemeMatchesSuiteRows(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	ctx := context.Background()
	check := func(c walkCase) bool {
		net := model.ByName(c.net)
		rows, err := RunNetworkOptsCtx(ctx, c.npu, net, DefaultSuiteOptions())
		if err != nil {
			t.Errorf("%s/%s: %v", c.npu.Name, c.net, err)
			return false
		}
		for _, row := range rows {
			var got RunResult
			err := WalkSchemeCtx(ctx, c.npu, net, row.Scheme, true, func(l Layer) {
				got.ExecCycles += max(l.Sim.ComputeCycles, l.DRAMCycles)
				got.ComputeCycles += l.Sim.ComputeCycles
				got.DataBytes += l.Prot.Overhead.DataBytes
				got.MetaBytes += l.Prot.Overhead.MetaBytes()
			})
			if err != nil {
				t.Errorf("%s/%s/%s: %v", c.npu.Name, c.net, row.Scheme.Name(), err)
				return false
			}
			if got.ExecCycles != row.ExecCycles || got.ComputeCycles != row.ComputeCycles ||
				got.DataBytes != row.DataBytes || got.MetaBytes != row.MetaBytes {
				t.Errorf("%s/%s/%s: walk exec=%d compute=%d data=%d meta=%d, row exec=%d compute=%d data=%d meta=%d",
					c.npu.Name, c.net, row.Scheme.Name(),
					got.ExecCycles, got.ComputeCycles, got.DataBytes, got.MetaBytes,
					row.ExecCycles, row.ComputeCycles, row.DataBytes, row.MetaBytes)
				return false
			}
		}
		return true
	}
	qc := &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(24))}
	if err := quick.Check(check, qc); err != nil {
		t.Error(err)
	}
}

// TestStreamedWalkMatchesCollectedLayers is the layer-streaming
// walk's property test: on random small platforms, walking all six
// schemes through one overlay reused layer after layer must hand each
// callback exactly the layer memprot.ProtectAllArenaCtx builds with a
// fresh overlay per layer, all kept live (accesses, anchors and
// overhead), and every callback's anchors must be nondecreasing and
// inside its spine.
func TestStreamedWalkMatchesCollectedLayers(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 6
	}
	ctx := context.Background()
	schemes := Schemes()
	check := func(c walkCase) bool {
		net := model.ByName(c.net)
		arr, err := c.npu.arrayConfig()
		if err != nil {
			t.Fatal(err)
		}
		sim, err := arr.SimulateNetwork(net)
		if err != nil {
			t.Fatal(err)
		}
		want, err := memprot.ProtectAllArenaCtx(ctx, schemes, sim, memprot.DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		next := make([]int, len(schemes))
		err = walk(ctx, c.npu, net, schemes, false, func(k int, l Layer) {
			i := next[k]
			next[k]++
			name := fmt.Sprintf("%s/%s/%s layer %d", c.npu.Name, c.net, schemes[k].Name(), i)
			ref, got := &want[k].Layers[i], l.Prot
			if !slices.Equal(got.Deltas.Accesses, ref.Deltas.Accesses) || !slices.Equal(got.Deltas.Anchors, ref.Deltas.Anchors) {
				t.Errorf("%s: streamed overlay (%d entries) differs from the collected one (%d)", name, got.Deltas.Len(), ref.Deltas.Len())
				ok = false
			}
			if got.Overhead != ref.Overhead || got.DrainWrites != ref.DrainWrites {
				t.Errorf("%s: overhead %+v (drain %d), want %+v (drain %d)", name, got.Overhead, got.DrainWrites, ref.Overhead, ref.DrainWrites)
				ok = false
			}
			prev := int32(0)
			for _, a := range got.Deltas.Anchors {
				if a < prev || int(a) > got.Spine.Len() {
					t.Errorf("%s: anchor %d after %d, spine length %d", name, a, prev, got.Spine.Len())
					ok = false
					break
				}
				prev = a
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := range schemes {
			if next[k] != len(sim.Layers) {
				t.Errorf("%s/%s/%s: %d callbacks, want %d", c.npu.Name, c.net, schemes[k].Name(), next[k], len(sim.Layers))
				ok = false
			}
		}
		return ok
	}
	qc := &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(27))}
	if err := quick.Check(check, qc); err != nil {
		t.Error(err)
	}
}

// TestSchemeSubsetRowsMatchSuiteRows: on random small platforms and
// workloads, the cached entry point's rows for every scheme subset an
// exploration confirms ({s, Baseline}, and {Baseline} alone), with and
// without a cache, equal the
// six-scheme rows restricted to the subset, every field included, the
// normalised ratios too. Subsets that are not a subsequence of
// Schemes() containing Baseline are rejected.
func TestSchemeSubsetRowsMatchSuiteRows(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 6
	}
	ctx := context.Background()
	check := func(c walkCase) bool {
		net := model.ByName(c.net)
		all, err := RunNetworkOptsCtx(ctx, c.npu, net, DefaultSuiteOptions())
		if err != nil {
			t.Errorf("%s/%s: %v", c.npu.Name, c.net, err)
			return false
		}
		for _, s := range Schemes() {
			subset := []memprot.Scheme{s, memprot.SchemeBaseline}
			if s == memprot.SchemeBaseline {
				subset = subset[1:]
			}
			var want []RunResult
			for _, r := range all {
				if slices.Contains(subset, r.Scheme) {
					want = append(want, r)
				}
			}
			// Uncached, and through a cache: stored, decoded and
			// accepted by checkRows.
			for _, cache := range []*rescache.Cache{nil, newTestCache(t)} {
				suite, err := RunSuiteCachedCtx(ctx, cache, c.npu, []*model.Network{net}, subset)
				if err != nil {
					t.Errorf("%s/%s/%s: %v", c.npu.Name, c.net, s.Name(), err)
					return false
				}
				if got := suite.Rows[net.Name]; !slices.Equal(got, want) {
					t.Errorf("%s/%s/%s: subset rows\n%+v\nwant\n%+v", c.npu.Name, c.net, s.Name(), got, want)
					return false
				}
			}
		}
		return true
	}
	qc := &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(28))}
	if err := quick.Check(check, qc); err != nil {
		t.Error(err)
	}

	sgx128 := memprot.Scheme{Kind: memprot.SGX, Block: 128}
	for name, bad := range map[string][]memprot.Scheme{
		"empty":        nil,
		"no baseline":  {memprot.SchemeSeDA},
		"out of order": {memprot.SchemeBaseline, memprot.SchemeSeDA},
		"repeated":     {memprot.SchemeSeDA, memprot.SchemeSeDA, memprot.SchemeBaseline},
		"unknown":      {sgx128, memprot.SchemeBaseline},
	} {
		if _, err := RunSuiteCachedCtx(ctx, nil, EdgeNPU(), []*model.Network{model.ByName("let")}, bad); err == nil {
			t.Errorf("%s scheme set %v accepted", name, bad)
		}
	}
}
